package seg

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"hyperion/internal/nvme"
	"hyperion/internal/sim"
	"hyperion/internal/wire"
)

// recoverRig is a small store whose control area a test can read and
// write behind the store's back: tableBlocks blocks at LBA 0 of devs[0].
type recoverRig struct {
	eng  *sim.Engine
	devs []*nvme.Device
	cfg  Config
}

const rigTableBlocks = 2

func newRecoverRig(devN int) *recoverRig {
	r := &recoverRig{eng: sim.NewEngine(1), cfg: DefaultConfig()}
	r.cfg.DRAMBytes = 1 << 20
	r.cfg.TableBlocks = rigTableBlocks
	r.cfg.CheckpointEvery = 0
	for i := 0; i < devN; i++ {
		ncfg := nvme.DefaultConfig("nvme")
		ncfg.Blocks = 1 << 10
		r.devs = append(r.devs, nvme.New(r.eng, ncfg))
	}
	return r
}

// store builds a fresh store over the rig's first devN devices, as a
// reboot would.
func (r *recoverRig) store(devN int) *Store {
	var hosts []*nvme.Host
	for _, d := range r.devs[:devN] {
		hosts = append(hosts, nvme.NewHost(d, nil))
	}
	return New(r.eng, r.cfg, hosts)
}

func (r *recoverRig) image() []byte {
	img := make([]byte, rigTableBlocks*r.cfg.BlockSize)
	r.devs[0].ReadSyncInto(img, 0, rigTableBlocks)
	return img
}

// fill allocates count durable segments of 1–3 blocks in s and
// checkpoints it.
func (r *recoverRig) fill(t testing.TB, s *Store, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if _, err := s.Alloc(OID(8, uint64(i+1)), int64(1+i%3)*4096-int64(i), true, HintAuto); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// freeBlocks sums the store's unallocated NVMe blocks.
func freeBlocks(s *Store) (n int64) {
	for _, a := range s.nvmeAl {
		n += a.free()
	}
	return
}

// sealImage recomputes the header CRC of a whole-block checkpoint image
// in place, if its entry count fits the image.
func sealImage(img []byte, bs int) {
	need := 16 + int(wire.LE32At(img, 4))*entryBytes
	if padded := (need + bs - 1) / bs * bs; padded <= len(img) {
		wire.PutLE32At(img, 8, crc32.ChecksumIEEE(img[16:padded]))
	}
}

func TestRecoverRejectsForeignGeometry(t *testing.T) {
	// A CRC-valid table written by a 2-SSD store names device 1; a
	// store rebooted over one SSD must refuse it whole, not index past
	// its allocators or keep the entries that happened to fit.
	r := newRecoverRig(2)
	r.fill(t, r.store(2), 4)

	s1 := r.store(1)
	free := freeBlocks(s1)
	n, err := s1.Recover()
	if !errors.Is(err, ErrBadTable) || n != 0 {
		t.Fatalf("recover on one SSD: n=%d err=%v, want ErrBadTable", n, err)
	}
	if len(s1.table) != 0 || freeBlocks(s1) != free {
		t.Fatalf("rejected table left %d segments, %d of %d blocks free", len(s1.table), freeBlocks(s1), free)
	}
	// The same image is fine on the geometry that wrote it.
	if n, err := r.store(2).Recover(); err != nil || n != 4 {
		t.Fatalf("recover on two SSDs: n=%d err=%v", n, err)
	}
}

// TestCheckpointRecoverScheduleNothing: checkpoint and recovery sit on
// the synchronous plane — a checkpoint, a reboot over the same devices
// and a recovery run no event and leave none queued, and the recovered
// table checkpoints back to the bytes it was read from.
func TestCheckpointRecoverScheduleNothing(t *testing.T) {
	r := newRecoverRig(2)
	r.fill(t, r.store(2), 5)
	img := r.image()

	s := r.store(2)
	if n, err := s.Recover(); err != nil || n != 5 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if steps, pending := r.eng.Steps(), r.eng.Pending(); steps != 0 || pending != 0 {
		t.Fatalf("checkpoint and recovery ran %d events, left %d pending", steps, pending)
	}
	if !bytes.Equal(r.image(), img) {
		t.Fatal("recovered table re-checkpoints to different bytes")
	}
}

// TestCheckpointRefusesOversizedTable: a table the control area cannot
// hold is refused with ErrNoSpace and nothing written.
func TestCheckpointRefusesOversizedTable(t *testing.T) {
	r := newRecoverRig(1)
	s := r.store(1)
	// Two 4 KiB blocks hold the 16-byte header and 204 entries.
	for i := 0; i < 205; i++ {
		if _, err := s.Alloc(OID(9, uint64(i+1)), 1, true, HintAuto); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if r.devs[0].StoredBlocks() != 0 {
		t.Fatal("refused checkpoint wrote the control area")
	}
}

// FuzzRecover feeds arbitrary bytes to the checkpoint decoder through
// the device, as a torn or foreign control area would arrive. Recover
// must answer with ErrBadTable and an untouched store, or with a table
// that Checkpoint writes back as the same bytes — and never panic. seal
// repairs the header CRC so the fuzzer reaches the entry checks instead
// of stopping at the checksum.
func FuzzRecover(f *testing.F) {
	f.Add([]byte{}, false) // nothing checkpointed: the device reads zeroes
	rig := newRecoverRig(2)
	rig.fill(f, rig.store(2), 7)
	valid := rig.image()
	f.Add(valid, false)
	f.Add(valid, true)
	for _, m := range []struct {
		off int
		val byte
	}{
		{16 + entryBytes + 24 + 5, 0x20}, // entry 1: device 2 of 2
		{16 + 24 + 1, 0x01},              // entry 0: address not block-aligned
		{16 + 16 + 7, 0x80},              // entry 0: negative size
		{16 + 16 + 6, 0x01},              // entry 0: size past the device
		{16 + 24 + 1, 0x30},              // entry 0: moved onto entry 2's blocks
		{16 + 2*entryBytes, 0x00},        // entry 2: id below entry 1's
		{16 + 32, 0x03},                  // entry 0: unknown flag bits
		{16 + 7*entryBytes + 9, 0xAA},    // padding after the last entry
		{4, 0xFF},                        // count past the control area
	} {
		img := bytes.Clone(valid)
		img[m.off] = m.val
		f.Add(img, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		r := newRecoverRig(2)
		bs := r.cfg.BlockSize
		img := make([]byte, rigTableBlocks*bs)
		copy(img, data)
		if seal {
			sealImage(img, bs)
		}
		r.devs[0].WriteSync(0, img)

		s := r.store(2)
		free := freeBlocks(s)
		n, err := s.Recover()
		if err != nil {
			if !errors.Is(err, ErrBadTable) {
				t.Fatalf("untyped error: %v", err)
			}
			if n != 0 || len(s.table) != 0 || freeBlocks(s) != free {
				t.Fatalf("rejected table (%v) left n=%d, %d segments, %d of %d blocks free",
					err, n, len(s.table), freeBlocks(s), free)
			}
			return
		}
		if n != len(s.table) {
			t.Fatalf("recovered n=%d, table holds %d", n, len(s.table))
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := r.image(); !bytes.Equal(got, img) {
			t.Fatalf("accepted image does not re-encode to itself (%d entries)", n)
		}
	})
}
