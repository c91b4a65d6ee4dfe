package nvme

import "hyperion/internal/sim"

// blockTable is the device's sparse block store: LBA → the block's
// buffer, as leaves of 256 buffers in a sim.Sparse, every level
// allocated by the first write beneath it. An LBA is a flash address,
// so finding a block is three indexed loads and no hash. A block never
// written has no buffer and reads as zero. Allocators hand LBAs out
// densely from the low end, so the usual device holds one directory and
// a few leaves, and a lone write at the far end of the default 1 TiB
// namespace costs one page per level (8 + 8 + 6 KiB), not a table sized
// to the namespace.
type blockTable struct {
	leaves sim.Sparse[leafPage]
	n      int // blocks materialized
}

const (
	leafBits = 8  // 256 blocks (1 MiB of 4 KiB LBAs) per leaf
	midBits  = 10 // 1024 leaves (1 GiB) per sim.Sparse directory
	leafMask = 1<<leafBits - 1
)

type leafPage [1 << leafBits][]byte

// get returns the stored buffer of lba, or nil for a block never
// written (or outside anything ever written, negative LBAs included).
func (t *blockTable) get(lba int64) []byte {
	if l := t.leaves.Get(uint64(lba) >> leafBits); l != nil {
		return l[lba&leafMask]
	}
	return nil
}

// block returns the stored buffer of lba, materializing a zeroed one of
// size bytes — and the pages above it — for a block never written.
func (t *blockTable) block(lba int64, size int) []byte {
	blk := &t.leaves.At(uint64(lba) >> leafBits)[lba&leafMask]
	if *blk == nil {
		*blk = make([]byte, size)
		t.n++
	}
	return *blk
}
