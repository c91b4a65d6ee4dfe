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
// modeled on this path; the async Store API remains for that.
type SyncView struct {
	s    *Store
	cost sim.Duration
	rmw  []byte // scratch for read-modify-write edges in WriteAt

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
		out := grow(buf, length)
		v.s.dram.read(out, sg.Addr+off)
		return out, nil
	}
	dev, lba := v.s.split(sg.Addr)
	bs := int64(v.s.cfg.BlockSize)
	first := lba + off/bs
	nblocks := int((off+length+bs-1)/bs - off/bs)
	if nblocks < 1 {
		nblocks = 1
	}
	skip := off % bs
	d := v.s.devs[dev].Device()
	v.cost += d.AccessCost(nvme.OpRead, nblocks)
	v.DevReads++
	data := grow(buf, int64(nblocks)*bs)
	d.ReadSyncInto(data, first, nblocks)
	// Slide the payload to the buffer base so the result can be handed
	// back as the next call's scratch without losing capacity.
	copy(data, data[skip:skip+length])
	return data[:length], nil
}

// WriteAt stores data at off in the object (read-modify-write for
// unaligned NVMe edges, with the extra read charged).
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
	nblocks := int((off+length+bs-1)/bs - off/bs)
	if nblocks < 1 {
		nblocks = 1
	}
	skip := off % bs
	d := v.s.devs[dev].Device()
	if skip == 0 && length%bs == 0 {
		v.cost += d.AccessCost(nvme.OpWrite, nblocks)
		v.DevWrites++
		d.WriteSync(first, data)
		return nil
	}
	// RMW: read covering blocks, merge, write back.
	v.cost += d.AccessCost(nvme.OpRead, nblocks) + d.AccessCost(nvme.OpWrite, nblocks)
	v.DevReads++
	v.DevWrites++
	old := grow(v.rmw, int64(nblocks)*bs)
	v.rmw = old
	d.ReadSyncInto(old, first, nblocks)
	copy(old[skip:], data)
	d.WriteSync(first, old)
	return nil
}

// Complete schedules cb after the accumulated cost, resetting it. This
// is the bridge back into simulated time for request handlers.
func (v *SyncView) Complete(eng *sim.Engine, name string, cb func()) {
	d := v.TakeCost()
	eng.After(d, name, cb)
}
