package seg

import "hyperion/internal/sim"

// dramBacking is the card DRAM's functional state: 64 KiB pages in a
// sim.Sparse, each page allocated by the first write into it. A page
// never written has no buffer and reads as zero, so a store sized to
// the card's 32 GiB costs only the pages its objects have written. The
// DRAM allocator keeps every object of at most one page inside a single
// page (allocator.page), so such an object is always lent in place once
// written.
const (
	dramPageBits = 16 // 64 KiB pages
	dramPageSize = int64(1) << dramPageBits
	dramPageMask = dramPageSize - 1
)

type dramPage [dramPageSize]byte

type dramBacking struct{ pages sim.Sparse[dramPage] }

// page returns the page holding addr, or nil for one never written.
func (d *dramBacking) page(addr int64) *dramPage {
	return d.pages.Get(uint64(addr >> dramPageBits))
}

// read copies len(dst) bytes starting at addr into dst, zero-filling
// spans of pages never written.
func (d *dramBacking) read(dst []byte, addr int64) {
	for len(dst) > 0 {
		off := addr & dramPageMask
		n := min(dramPageSize-off, int64(len(dst)))
		if p := d.page(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n
	}
}

// view returns the n bytes at addr in place, or nil when they cross a
// page boundary or the page was never written (an empty range at the
// very end of DRAM has no page either). Capacity is clipped so an
// append cannot reach the backing.
func (d *dramBacking) view(addr, n int64) []byte {
	off := addr & dramPageMask
	if off+n > dramPageSize {
		return nil
	}
	p := d.page(addr)
	if p == nil {
		return nil
	}
	return p[off : off+n : off+n]
}

// write copies src to addr, materializing pages as needed.
func (d *dramBacking) write(addr int64, src []byte) {
	for len(src) > 0 {
		n := min(dramPageSize-addr&dramPageMask, int64(len(src)))
		copy(d.edit(addr, n), src[:n])
		src = src[n:]
		addr += n
	}
}

// edit is view for a writer: it materializes the page, so it answers
// nil only when the n bytes cross a page boundary.
func (d *dramBacking) edit(addr, n int64) []byte {
	off := addr & dramPageMask
	if off+n > dramPageSize {
		return nil
	}
	return d.pages.At(uint64(addr >> dramPageBits))[off : off+n : off+n]
}
