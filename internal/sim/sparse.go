package sim

// Sparse is a sparse array of pages: a root slice of 1024-entry
// directories, each directory and each page allocated by the first At
// beneath it. Finding a page is two indexed loads and no hash, and a
// lone page far out costs its directory, not a table sized to the
// index. The card's DRAM (64 KiB pages) and a flash device's blocks
// (pages of 256 block buffers) both live in one. The zero value is
// ready to use.
type Sparse[P any] struct {
	root []*[1 << sparseDirBits]*P // one entry per directory, up to the highest materialized
}

const sparseDirBits = 10

// Get returns page i, or nil for one never materialized.
func (t *Sparse[P]) Get(i uint64) *P {
	if r := i >> sparseDirBits; r < uint64(len(t.root)) {
		if dir := t.root[r]; dir != nil {
			return dir[i&(1<<sparseDirBits-1)]
		}
	}
	return nil
}

// At returns page i, allocating a zeroed one — and its directory — on
// first use.
func (t *Sparse[P]) At(i uint64) *P {
	r := int(i >> sparseDirBits)
	if r >= len(t.root) {
		grown := make([]*[1 << sparseDirBits]*P, r+1)
		copy(grown, t.root)
		t.root = grown
	}
	dir := t.root[r]
	if dir == nil {
		dir = new([1 << sparseDirBits]*P)
		t.root[r] = dir
	}
	p := &dir[i&(1<<sparseDirBits-1)]
	if *p == nil {
		*p = new(P)
	}
	return *p
}
