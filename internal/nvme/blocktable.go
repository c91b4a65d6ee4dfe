package nvme

// blockTable is the device's sparse block store: a three-level radix
// table from LBA to the block's buffer, every level allocated by the
// first write beneath it. An LBA is a flash address, so finding a block
// is three indexed loads and no hash. A block never written has no
// buffer and reads as zero. Allocators hand LBAs out densely from the
// low end, so the usual device holds one mid page and a few leaves,
// and a lone write at the far end of the default 1 TiB namespace costs
// one page per level (8 + 8 + 6 KiB), not a table sized to the
// namespace.
type blockTable struct {
	root []*midPage // one entry per mid page, up to the highest written
	n    int        // blocks materialized
}

const (
	leafBits = 8  // 256 blocks (1 MiB of 4 KiB LBAs) per leaf
	midBits  = 10 // 1024 leaves (1 GiB) per mid page
	leafMask = 1<<leafBits - 1
	midMask  = 1<<midBits - 1
)

type (
	leafPage [1 << leafBits][]byte
	midPage  [1 << midBits]*leafPage
)

// get returns the stored buffer of lba, or nil for a block never
// written (or outside anything ever written, negative LBAs included).
func (t *blockTable) get(lba int64) []byte {
	if r := uint64(lba) >> (leafBits + midBits); r < uint64(len(t.root)) {
		if m := t.root[r]; m != nil {
			if l := m[lba>>leafBits&midMask]; l != nil {
				return l[lba&leafMask]
			}
		}
	}
	return nil
}

// block returns the stored buffer of lba, materializing a zeroed one of
// size bytes — and the pages above it — for a block never written.
func (t *blockTable) block(lba int64, size int) []byte {
	r := int(lba >> (leafBits + midBits))
	if r >= len(t.root) {
		grown := make([]*midPage, r+1)
		copy(grown, t.root)
		t.root = grown
	}
	m := t.root[r]
	if m == nil {
		m = new(midPage)
		t.root[r] = m
	}
	l := &m[lba>>leafBits&midMask]
	if *l == nil {
		*l = new(leafPage)
	}
	blk := &(*l)[lba&leafMask]
	if *blk == nil {
		*blk = make([]byte, size)
		t.n++
	}
	return *blk
}
