package seg

// dramBacking is the card DRAM's functional state, stored as sparse
// fixed-size chunks allocated on first write. A freshly built store
// used to allocate the full DRAMBytes slab up front (32 GiB at default
// config — by far the largest allocation in the simulator, and pure
// zeroed dead weight for experiments that touch a fraction of it).
// Unwritten bytes read as zero, exactly like the eagerly-zeroed slab,
// so the swap is behavior-identical.
const (
	dramChunkBits = 22 // 4 MiB chunks
	dramChunkSize = int64(1) << dramChunkBits
)

type dramBacking struct {
	size   int64
	chunks [][]byte // nil until first written
}

func newDRAMBacking(size int64) *dramBacking {
	n := (size + dramChunkSize - 1) >> dramChunkBits
	return &dramBacking{size: size, chunks: make([][]byte, n)}
}

// read copies len(dst) bytes starting at addr into dst, zero-filling
// spans backed by never-written chunks.
func (d *dramBacking) read(dst []byte, addr int64) {
	for len(dst) > 0 {
		ci := addr >> dramChunkBits
		off := addr & (dramChunkSize - 1)
		n := dramChunkSize - off
		if int64(len(dst)) < n {
			n = int64(len(dst))
		}
		if c := d.chunks[ci]; c != nil {
			copy(dst[:n], c[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += n
	}
}

// view returns the n bytes at addr in place, or nil when they cross a
// chunk boundary or the chunk was never written (an empty range at the
// very end of DRAM has no chunk either). Capacity is clipped so an
// append cannot reach the backing.
func (d *dramBacking) view(addr, n int64) []byte {
	ci, off := addr>>dramChunkBits, addr&(dramChunkSize-1)
	if ci >= int64(len(d.chunks)) || d.chunks[ci] == nil || off+n > dramChunkSize {
		return nil
	}
	return d.chunks[ci][off : off+n : off+n]
}

// write copies src to addr, materializing chunks as needed.
func (d *dramBacking) write(addr int64, src []byte) {
	for len(src) > 0 {
		n := min(dramChunkSize-addr&(dramChunkSize-1), int64(len(src)))
		copy(d.edit(addr, n), src[:n])
		src = src[n:]
		addr += n
	}
}

// edit is view for a writer: it materializes the chunk, so it answers
// nil only when the n bytes cross a chunk boundary.
func (d *dramBacking) edit(addr, n int64) []byte {
	ci, off := addr>>dramChunkBits, addr&(dramChunkSize-1)
	if off+n > dramChunkSize {
		return nil
	}
	if d.chunks[ci] == nil {
		d.chunks[ci] = make([]byte, dramChunkSize)
	}
	return d.chunks[ci][off : off+n : off+n]
}
