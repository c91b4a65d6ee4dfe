package seg

import (
	"slices"
	"sort"
)

// allocator is a first-fit free-list allocator over a linear space of
// units (bytes for DRAM, blocks for NVMe). base offsets every returned
// address (used to reserve the table checkpoint area). A nonzero page,
// a power of two, keeps every request of at most page units inside one
// aligned page: the first fit that would straddle a page edge starts at
// the next page instead, and the skipped units stay a hole.
type allocator struct {
	base  int64
	total int64
	page  int64
	holes []hole // sorted by addr, coalesced
}

type hole struct{ addr, size int64 }

func newAllocator(total, page int64) *allocator {
	if total < 0 {
		total = 0
	}
	return &allocator{total: total, page: page, holes: []hole{{0, total}}}
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
	for i, h := range a.holes {
		addr := h.addr
		if n <= a.page && addr&(a.page-1)+n > a.page {
			addr = (addr | (a.page - 1)) + 1
		}
		pad := addr - h.addr
		if h.size-pad < n {
			continue
		}
		rest := hole{addr + n, h.size - pad - n}
		switch {
		case pad > 0 && rest.size > 0:
			a.holes[i].size = pad
			a.holes = slices.Insert(a.holes, i+1, rest)
		case pad > 0:
			a.holes[i].size = pad
		case rest.size > 0:
			a.holes[i] = rest
		default:
			a.holes = slices.Delete(a.holes, i, i+1)
		}
		return addr + a.base, nil
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
