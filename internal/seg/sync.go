package seg

import (
	"fmt"

	"hyperion/internal/nvme"
	"hyperion/internal/sim"
)

// SyncView is the synchronous, functional access path used by the
// storage structures built on the segment store (B+ tree, LSM tree,
// filesystem, logs). Operations move bytes immediately and accumulate
// the latency the same access would cost on the modeled hardware;
// callers drain the accumulated cost with TakeCost and charge it to the
// simulation (typically by delaying their completion callback).
//
// This functional/timing split keeps pointer-walking code ordinary Go
// while preserving the dependent-access latency that the experiments
// measure. Queueing effects between concurrent operations are not
// modeled on this path. It is the store's only data path: every read
// and write, and the table checkpoint and recovery, are synchronous.
type SyncView struct {
	s    *Store
	cost sim.Duration

	// Op counters for experiment reporting.
	Reads, Writes           int64
	DevReads, DevWrites     int64
	BytesRead, BytesWritten int64
}

// grow returns buf resized to n bytes, reallocating only when its
// capacity is insufficient. Contents are unspecified.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// NewSyncView creates a view over s.
func NewSyncView(s *Store) *SyncView { return &SyncView{s: s} }

// Store returns the underlying store.
func (v *SyncView) Store() *Store { return v.s }

// TakeCost returns the accumulated modeled latency and resets it.
func (v *SyncView) TakeCost() sim.Duration {
	c := v.cost
	v.cost = 0
	return c
}

// Charge adds extra modeled latency (compute time, network hops).
func (v *SyncView) Charge(d sim.Duration) { v.cost += d }

// Alloc mirrors Store.Alloc (allocation is a table operation and charges
// one DRAM access).
func (v *SyncView) Alloc(id ObjectID, size int64, durable bool, hint Hint) (*Segment, error) {
	v.cost += v.s.cfg.DRAMLatency
	return v.s.Alloc(id, size, durable, hint)
}

// Free mirrors Store.Free.
func (v *SyncView) Free(id ObjectID) error {
	v.cost += v.s.cfg.DRAMLatency
	return v.s.Free(id)
}

// Stat looks up a segment entry, charging translation cost.
func (v *SyncView) Stat(id ObjectID) (*Segment, error) {
	sg, tc, err := v.s.Lookup(id)
	v.cost += tc
	return sg, err
}

// ReadAt copies length bytes at off from the object.
func (v *SyncView) ReadAt(id ObjectID, off, length int64) ([]byte, error) {
	return v.ReadAtBuf(id, off, length, nil)
}

// ReadAtBuf is ReadAt into a caller-provided scratch buffer, charging the
// identical modeled cost. The result starts at buf's base and aliases it
// whenever capacity suffices; callers reuse the buffer across calls by
// passing the previous result back in.
func (v *SyncView) ReadAtBuf(id ObjectID, off, length int64, buf []byte) ([]byte, error) {
	sg, err := v.chargeRead(id, off, length)
	if err != nil {
		return nil, err
	}
	out := grow(buf, length)
	v.s.copyOut(out, sg, off)
	return out, nil
}

// Borrow is ReadAt without the copy: same bounds checks, same modeled
// cost, same counters, but the result aliases the stored bytes (or the
// device's read-only zero block, for a block never written) whenever
// the range sits inside one NVMe block or one DRAM chunk. The result
// is read-only and valid until the object is next written or freed — a
// caller that keeps the bytes past that must copy them.
//
// A range that cannot be aliased is copied instead: into *spill, grown
// as needed, when the caller lends one (that copy then lasts until the
// caller's next Borrow with the same spill), into a fresh allocation
// when spill is nil.
func (v *SyncView) Borrow(id ObjectID, off, length int64, spill *[]byte) ([]byte, error) {
	sg, err := v.chargeRead(id, off, length)
	if err != nil {
		return nil, err
	}
	if src := v.s.inPlace(sg, off, length); src != nil {
		return src, nil
	}
	var out []byte
	if spill != nil {
		*spill = grow(*spill, length)
		out = *spill
	} else {
		out = make([]byte, length)
	}
	v.s.copyOut(out, sg, off)
	return out, nil
}

// chargeRead is the accounting of one synchronous read, shared by the
// copying and the borrowing form: translation, bounds, op counters and
// the modeled DRAM or device time.
func (v *SyncView) chargeRead(id ObjectID, off, length int64) (*Segment, error) {
	sg, tc, err := v.s.Lookup(id)
	v.cost += tc
	if err != nil {
		return nil, err
	}
	if off < 0 || length < 0 || off+length > sg.Size {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+length, sg.Size)
	}
	v.Reads++
	v.BytesRead += length
	if sg.Loc == LocDRAM {
		v.cost += v.s.dramTime(length)
		return sg, nil
	}
	dev, _ := v.s.split(sg.Addr)
	v.cost += v.s.devs[dev].Device().AccessCost(nvme.OpRead, v.s.spanBlocks(off, length))
	v.DevReads++
	return sg, nil
}

// spanBlocks is how many device blocks the byte range [off, off+length)
// of an NVMe segment covers; an empty range still costs one.
func (s *Store) spanBlocks(off, length int64) int {
	bs := int64(s.cfg.BlockSize)
	if n := int((off+length+bs-1)/bs - off/bs); n > 1 {
		return n
	}
	return 1
}

// inPlace returns the stored bytes of [off, off+length) of sg without
// copying, or nil when the range crosses a block or chunk boundary or
// sits in DRAM never written. Capacity is clipped so an append cannot
// reach the store.
func (s *Store) inPlace(sg *Segment, off, length int64) []byte {
	if sg.Loc == LocDRAM {
		return s.dram.view(sg.Addr+off, length)
	}
	bs := int64(s.cfg.BlockSize)
	skip := off % bs
	if skip+length > bs {
		return nil
	}
	dev, lba := s.split(sg.Addr)
	return s.devs[dev].Device().BorrowSync(lba + off/bs)[skip : skip+length : skip+length]
}

// copyOut fills dst with the object's bytes starting at off.
func (s *Store) copyOut(dst []byte, sg *Segment, off int64) {
	if sg.Loc == LocDRAM {
		s.dram.read(dst, sg.Addr+off)
		return
	}
	dev, lba := s.split(sg.Addr)
	d := s.devs[dev].Device()
	bs := int64(s.cfg.BlockSize)
	lba += off / bs
	skip := off % bs
	for len(dst) > 0 {
		n := copy(dst, d.BorrowSync(lba)[skip:])
		dst = dst[n:]
		lba++
		skip = 0
	}
}

// WriteAt stores data at off in the object. An unaligned NVMe edge is
// patched into the stored blocks in place and charged as the
// read-modify-write it models: one device read plus one device write
// of the covering blocks.
func (v *SyncView) WriteAt(id ObjectID, off int64, data []byte) error {
	sg, tc, err := v.s.Lookup(id)
	v.cost += tc
	if err != nil {
		return err
	}
	length := int64(len(data))
	if off < 0 || off+length > sg.Size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+length, sg.Size)
	}
	v.Writes++
	v.BytesWritten += length
	if sg.Loc == LocDRAM {
		v.cost += v.s.dramTime(length)
		v.s.dram.write(sg.Addr+off, data)
		return nil
	}
	dev, lba := v.s.split(sg.Addr)
	bs := int64(v.s.cfg.BlockSize)
	first := lba + off/bs
	nblocks := v.s.spanBlocks(off, length)
	skip := off % bs
	d := v.s.devs[dev].Device()
	if skip == 0 && length%bs == 0 {
		v.cost += d.AccessCost(nvme.OpWrite, nblocks)
		v.DevWrites++
		d.WriteSync(first, data)
	} else {
		v.cost += d.AccessCost(nvme.OpRead, nblocks) + d.AccessCost(nvme.OpWrite, nblocks)
		v.DevReads++
		v.DevWrites++
		d.PatchSync(first, int(skip), data)
	}
	return nil
}
