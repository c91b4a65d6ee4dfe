package seg

import (
	"sort"
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
// owner keeps it coherent by removing freed objects). The recency order
// is an index-linked list over a node arena, so get, put, and remove are
// O(1) with no steady-state allocation; eviction order is identical to
// the textbook list form (front = LRU, back = MRU).
type lruCache struct {
	cap        int
	idx        oidIndex
	nodes      []lruNode
	head, tail int32 // head = LRU, tail = MRU; -1 when empty
	freeList   int32 // recycled node indexes, chained via next
}

type lruNode struct {
	key        ObjectID
	val        *Segment
	prev, next int32
}

func newLRU(cap int) *lruCache {
	return &lruCache{
		cap:      cap,
		head:     -1,
		tail:     -1,
		freeList: -1,
	}
}

func (c *lruCache) get(id ObjectID) (*Segment, bool) {
	i, ok := c.idx.get(id)
	if !ok {
		return nil, false
	}
	c.moveBack(i)
	return c.nodes[i].val, true
}

func (c *lruCache) put(id ObjectID, sg *Segment) {
	if i, ok := c.idx.get(id); ok {
		c.nodes[i].val = sg
		c.moveBack(i)
		return
	}
	if c.idx.n >= c.cap {
		v := c.head
		c.unlink(v)
		c.idx.del(c.nodes[v].key)
		c.nodes[v].val = nil
		c.nodes[v].next = c.freeList
		c.freeList = v
	}
	var i int32
	if c.freeList >= 0 {
		i = c.freeList
		c.freeList = c.nodes[i].next
		c.nodes[i] = lruNode{key: id, val: sg}
	} else {
		c.nodes = append(c.nodes, lruNode{key: id, val: sg})
		i = int32(len(c.nodes) - 1)
	}
	c.pushBack(i)
	c.idx.set(id, i)
}

func (c *lruCache) remove(id ObjectID) {
	i, ok := c.idx.get(id)
	if !ok {
		return
	}
	c.unlink(i)
	c.idx.del(id)
	c.nodes[i].val = nil
	c.nodes[i].next = c.freeList
	c.freeList = i
}

func (c *lruCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *lruCache) pushBack(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = c.tail, -1
	if c.tail >= 0 {
		c.nodes[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

func (c *lruCache) moveBack(i int32) {
	if c.tail == i {
		return
	}
	c.unlink(i)
	c.pushBack(i)
}
