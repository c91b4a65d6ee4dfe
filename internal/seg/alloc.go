package seg

import (
	"sort"

	"hyperion/internal/sim"
)

// allocator is a first-fit free-list allocator over a linear space of
// units (bytes for DRAM, blocks for NVMe). base offsets every returned
// address (used to reserve the table checkpoint area).
type allocator struct {
	base  int64
	total int64
	holes []hole // sorted by addr, coalesced
}

type hole struct{ addr, size int64 }

func newAllocator(total int64) *allocator {
	if total < 0 {
		total = 0
	}
	return &allocator{total: total, holes: []hole{{0, total}}}
}

// free returns the total unallocated units.
func (a *allocator) free() int64 {
	var f int64
	for _, h := range a.holes {
		f += h.size
	}
	return f
}

// alloc reserves n units, returning their starting address.
func (a *allocator) alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, ErrNoSpace
	}
	for i := range a.holes {
		if a.holes[i].size >= n {
			addr := a.holes[i].addr
			a.holes[i].addr += n
			a.holes[i].size -= n
			if a.holes[i].size == 0 {
				a.holes = append(a.holes[:i], a.holes[i+1:]...)
			}
			return addr + a.base, nil
		}
	}
	return 0, ErrNoSpace
}

// release returns n units at addr to the free list, coalescing
// neighbours.
func (a *allocator) release(addr, n int64) {
	if n <= 0 {
		return
	}
	addr -= a.base
	i := sort.Search(len(a.holes), func(i int) bool { return a.holes[i].addr >= addr })
	a.holes = append(a.holes, hole{})
	copy(a.holes[i+1:], a.holes[i:])
	a.holes[i] = hole{addr, n}
	// Coalesce with next, then previous.
	if i+1 < len(a.holes) && a.holes[i].addr+a.holes[i].size == a.holes[i+1].addr {
		a.holes[i].size += a.holes[i+1].size
		a.holes = append(a.holes[:i+1], a.holes[i+2:]...)
	}
	if i > 0 && a.holes[i-1].addr+a.holes[i-1].size == a.holes[i].addr {
		a.holes[i-1].size += a.holes[i].size
		a.holes = append(a.holes[:i], a.holes[i+1:]...)
	}
}

// lruCache models the hardware segment-descriptor cache. It caches the
// descriptor pointer, so a translation hit is one index probe (the
// owner keeps it coherent by removing freed objects); get, put and
// remove are O(1) with no steady-state allocation.
type lruCache struct {
	cap   int
	idx   oidIndex
	order sim.Recency[cacheEntry]
}

type cacheEntry struct {
	key ObjectID
	val *Segment
}

func newLRU(cap int) *lruCache { return &lruCache{cap: cap} }

func (c *lruCache) get(id ObjectID) (*Segment, bool) {
	i, ok := c.idx.get(id)
	if !ok {
		return nil, false
	}
	c.order.MoveBack(i)
	return c.order.At(i).val, true
}

func (c *lruCache) put(id ObjectID, sg *Segment) {
	if i, ok := c.idx.get(id); ok {
		c.order.At(i).val = sg
		c.order.MoveBack(i)
		return
	}
	if c.idx.n >= c.cap {
		v := c.order.Front()
		c.idx.del(c.order.At(v).key)
		c.order.Remove(v)
	}
	c.idx.set(id, c.order.PushBack(cacheEntry{key: id, val: sg}))
}

func (c *lruCache) remove(id ObjectID) {
	i, ok := c.idx.get(id)
	if !ok {
		return
	}
	c.idx.del(id)
	c.order.Remove(i)
}
