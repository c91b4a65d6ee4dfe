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
	// scratch holds an Edit whose range cannot be edited in place.
	scratch []byte

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
	v.cost += dramLatency
	return v.s.Alloc(id, size, durable, hint)
}

// Free mirrors Store.Free.
func (v *SyncView) Free(id ObjectID) error {
	v.cost += dramLatency
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
	sg, err := v.ChargeRead(id, off, length)
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
// the range sits inside one NVMe block or one DRAM page. The result
// is read-only and valid until the object is next written or freed — a
// caller that keeps the bytes past that must copy them.
//
// A range that cannot be aliased is copied instead: into *spill, grown
// as needed, when the caller lends one (that copy then lasts until the
// caller's next Borrow with the same spill), into a fresh allocation
// when spill is nil.
func (v *SyncView) Borrow(id ObjectID, off, length int64, spill *[]byte) ([]byte, error) {
	sg, err := v.ChargeRead(id, off, length)
	if err != nil {
		return nil, err
	}
	if src := v.s.inPlace(sg, off, length, false); src != nil {
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

// ChargeRead is the accounting of one synchronous read, shared by the
// copying and the borrowing form: translation, bounds, op counters and
// the modeled DRAM or device time. Alone, it charges a read whose bytes
// the caller already holds (a bptree Insert replaying a Get's descent).
func (v *SyncView) ChargeRead(id ObjectID, off, length int64) (*Segment, error) {
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
	if n := int((off+length+s.blockMask)>>s.blockShift - off>>s.blockShift); n > 1 {
		return n
	}
	return 1
}

// inPlace returns the stored bytes of [off, off+length) of sg without
// copying, or nil when the range crosses a block or page boundary or
// sits in DRAM never written. To write, it materializes the block or
// page instead, and answers nil for an empty range (which writes
// nothing in place). Capacity is clipped so an append cannot reach the
// store.
func (s *Store) inPlace(sg *Segment, off, length int64, write bool) []byte {
	switch {
	case write && length == 0:
		return nil
	case sg.Loc == LocDRAM && write:
		return s.dram.edit(sg.Addr+off, length)
	case sg.Loc == LocDRAM:
		return s.dram.view(sg.Addr+off, length)
	}
	skip := off & s.blockMask
	if skip+length > int64(s.blockSize) {
		return nil
	}
	dev, lba := s.split(sg.Addr)
	d, lba := s.devs[dev].Device(), lba+off>>s.blockShift
	if write {
		return d.EditSync(lba)[skip : skip+length : skip+length]
	}
	return d.BorrowSync(lba)[skip : skip+length : skip+length]
}

// copyOut fills dst with the object's bytes starting at off.
func (s *Store) copyOut(dst []byte, sg *Segment, off int64) {
	if sg.Loc == LocDRAM {
		s.dram.read(dst, sg.Addr+off)
		return
	}
	dev, lba := s.split(sg.Addr)
	d := s.devs[dev].Device()
	lba += off >> s.blockShift
	skip := off & s.blockMask
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
	sg, err := v.Stat(id)
	if err != nil {
		return err
	}
	if off < 0 || off+int64(len(data)) > sg.Size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+int64(len(data)), sg.Size)
	}
	v.chargeWrite(sg, off, int64(len(data)))
	v.s.store(sg, off, data)
	return nil
}

// Edit charges and counts what a WriteAt of the whole object would, and
// hands edit the object's stored bytes to change in place (a block or
// page never written is materialized, as zeros). An object inPlace
// cannot lend is copied into the view's scratch, edited there and
// stored back as WriteAt stores its data. The bytes are valid only
// while edit runs, and edit must not use the view.
func (v *SyncView) Edit(id ObjectID, edit func(stored []byte)) error {
	sg, err := v.Stat(id)
	if err != nil {
		return err
	}
	v.chargeWrite(sg, 0, sg.Size)
	if dst := v.s.inPlace(sg, 0, sg.Size, true); dst != nil {
		edit(dst)
		return nil
	}
	v.scratch = grow(v.scratch, sg.Size)
	v.s.copyOut(v.scratch, sg, 0)
	edit(v.scratch)
	v.s.store(sg, 0, v.scratch)
	return nil
}

// chargeWrite is ChargeRead's counterpart, shared by WriteAt and Edit,
// for a range inside sg; an unaligned NVMe range is charged as the
// read-modify-write it models.
func (v *SyncView) chargeWrite(sg *Segment, off, length int64) {
	v.Writes++
	v.BytesWritten += length
	if sg.Loc == LocDRAM {
		v.cost += v.s.dramTime(length)
		return
	}
	dev, _ := v.s.split(sg.Addr)
	d, nblocks := v.s.devs[dev].Device(), v.s.spanBlocks(off, length)
	if v.s.aligned(off, length) {
		v.cost += d.AccessCost(nvme.OpWrite, nblocks)
	} else {
		v.cost += d.AccessCost(nvme.OpRead, nblocks) + d.AccessCost(nvme.OpWrite, nblocks)
		v.DevReads++
	}
	v.DevWrites++
}

// aligned reports whether [off, off+length) is whole device blocks.
func (s *Store) aligned(off, length int64) bool { return (off|length)&s.blockMask == 0 }

// store copies data into the object's bytes at off: whole aligned
// blocks are rewritten, an unaligned NVMe edge is patched in place.
func (s *Store) store(sg *Segment, off int64, data []byte) {
	if sg.Loc == LocDRAM {
		s.dram.write(sg.Addr+off, data)
		return
	}
	dev, lba := s.split(sg.Addr)
	d := s.devs[dev].Device()
	first := lba + off>>s.blockShift
	if s.aligned(off, int64(len(data))) {
		d.WriteSync(first, data)
	} else {
		d.PatchSync(first, int(off&s.blockMask), data)
	}
}
