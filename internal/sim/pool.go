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
