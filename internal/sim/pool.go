package sim

// The event pool recycles event slots through a free list so the
// steady-state schedule/fire/cancel cycle allocates nothing: once the
// pool has grown to the simulation's high-water mark of in-flight
// events, every At/After reuses a slot some earlier event vacated.
// Generation stamps make recycled slots safe to reference: a slot's gen
// is bumped when it is released, so an EventRef held across the event's
// firing (or across a recycle) simply stops matching and Cancel becomes
// a no-op instead of killing an unrelated event.

// eventSlot holds the callback payload of one scheduled event. The sort
// key lives in the heap entry, not here.
type eventSlot struct {
	do   func()
	gen  uint32
	live bool // scheduled and neither fired nor cancelled
}

// eventPool is a slab of slots plus a LIFO free list. LIFO reuse keeps
// the hot slots hot in cache.
type eventPool struct {
	slots []eventSlot
	free  []int32
}

// alloc returns the index of a vacant slot, growing the slab if the
// free list is empty.
func (p *eventPool) alloc() int32 {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	p.slots = append(p.slots, eventSlot{})
	return int32(len(p.slots) - 1)
}

// release returns a slot to the free list, invalidating outstanding
// EventRefs by bumping the generation. The callback is dropped so the
// pool never pins dead closures for the GC.
func (p *eventPool) release(id int32) {
	s := &p.slots[id]
	s.do = nil
	s.live = false
	s.gen++
	p.free = append(p.free, id)
}

// FreeList recycles the per-operation contexts the model layers park
// between events (DESIGN §10): Put pushes, Get pops the most recently
// put object — LIFO, so the hot one is reused — and, when the list is
// empty, carves a zero object from a chunk. Chunks double from one to
// freeListChunkMax: an open loop that overloads its device (E17) only
// ever grows its backlog, so its lists never refill and a flat
// allocation per object would cost one per queued request, while a
// device that serves a handful of commands (E16 builds hundreds) must
// not pay for thirty-two. The zero value is ready to use.
//
// Get reports fresh for an object no caller has seen: that is when the
// owner sets the fields that outlive a recycle — its back pointer and
// the method values it hands to At/After — so a recycled object binds
// nothing. The owner resets every other field before Put; the list
// itself never touches an object.
type FreeList[T any] struct {
	free  []*T
	rest  []T // unissued tail of the newest chunk
	chunk int // size of the newest chunk
}

const freeListChunkMax = 32

// Get returns a recycled object, or a zero one (fresh) when none is free.
func (l *FreeList[T]) Get() (obj *T, fresh bool) {
	if n := len(l.free); n > 0 {
		obj, l.free = l.free[n-1], l.free[:n-1]
		return obj, false
	}
	if len(l.rest) == 0 {
		l.chunk = min(max(2*l.chunk, 1), freeListChunkMax)
		l.rest = make([]T, l.chunk)
	}
	obj, l.rest = &l.rest[0], l.rest[1:]
	return obj, true
}

// Put returns obj, already reset by its owner, to the list.
func (l *FreeList[T]) Put(obj *T) { l.free = append(l.free, obj) }
