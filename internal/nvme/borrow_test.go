package nvme

import (
	"bytes"
	"testing"

	"hyperion/internal/fault"
	"hyperion/internal/sim"
)

// pattern is a recognizable per-LBA block: the LBA in every 8-byte
// word, salted by version so an overwrite is distinguishable.
func pattern(lba int64, version byte) []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(lba>>(8*(uint(i)%8))) ^ version
	}
	return b
}

// readCopy runs one read to completion and returns a private copy of
// its payload plus the address of the lent buffer.
func readCopy(t *testing.T, eng *sim.Engine, h *Host, lba int64) (data []byte, base *byte) {
	t.Helper()
	if err := h.Read(0, lba, 1, func(d []byte, st uint16) {
		if st != StatusOK {
			t.Fatalf("read of lba %d: status %#x", lba, st)
		}
		data, base = append([]byte(nil), d...), &d[0]
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if data == nil {
		t.Fatalf("read of lba %d never completed", lba)
	}
	return data, base
}

// TestBorrowedReadReusesBuffer: a read's payload goes back to the
// device when its handler returns, and the next read is served from
// that same buffer — with the right bytes each time.
func TestBorrowedReadReusesBuffer(t *testing.T) {
	eng, dev, h := newDev(t)
	dev.WriteSync(7, pattern(7, 0))
	dev.WriteSync(8, pattern(8, 0))
	a, baseA := readCopy(t, eng, h, 7)
	b, baseB := readCopy(t, eng, h, 8)
	z, baseZ := readCopy(t, eng, h, 9) // never written
	if !bytes.Equal(a, pattern(7, 0)) || !bytes.Equal(b, pattern(8, 0)) {
		t.Fatal("read returned wrong bytes")
	}
	if !bytes.Equal(z, make([]byte, 4096)) {
		t.Fatal("read of an unwritten block is not zero (stale reuse)")
	}
	if baseA != baseB || baseB != baseZ {
		t.Fatal("consecutive reads did not reuse one device buffer")
	}
}

// TestBorrowedCorruptionHitsOnlyTheHandedBuffer: fault.Corrupt damages
// the buffer lent to the handler, never the store, so the reread is
// clean.
func TestBorrowedCorruptionHitsOnlyTheHandedBuffer(t *testing.T) {
	eng, dev, h := newDev(t)
	want := pattern(3, 0)
	dev.WriteSync(3, want)
	plan := fault.NewPlan(1, "nvme").Set(fault.Corrupt, 1)
	dev.SetFaultPlan(plan)
	bad, _ := readCopy(t, eng, h, 3)
	diff := 0
	for i := range bad {
		if bad[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt read differs in %d bytes, want exactly 1", diff)
	}
	plan.Set(fault.Corrupt, 0)
	good, _ := readCopy(t, eng, h, 3)
	if !bytes.Equal(good, want) {
		t.Fatal("reread after a corrupt read is not clean")
	}
	stored := make([]byte, 4096)
	dev.ReadSyncInto(stored, 3, 1)
	if !bytes.Equal(stored, want) {
		t.Fatal("corruption reached the store")
	}
}

// TestReadsSnapshotAtFlashTime: with a DMA hook the completion lands
// after the flash read, and writes to the same LBA may be stored in
// between. A read delivers the bytes stored when the flash read
// finished — the device's snapshot point — not what is stored by the
// time the handler runs.
func TestReadsSnapshotAtFlashTime(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := New(eng, DefaultConfig("nvme0"))
	dev.Bind(func(_ int64, done func()) { eng.After(50*sim.Microsecond, "fakedma", done) }, nil)
	h := NewHost(dev, nil)
	cfg := dev.Config()
	const lba = 11
	dev.WriteSync(lba, pattern(lba, 0))

	// Reads are issued every 20 µs; the block is rewritten
	// (synchronously, so the store changes at a known instant) every
	// 30 µs. Each read's flash access finishes CtrlOverhead + queueing +
	// ReadLatency after issue; the expected payload is whatever version
	// was stored at that instant, which the test learns by sampling the
	// store from an event scheduled at the same time.
	type obs struct{ got, want []byte }
	var seen []*obs
	version := byte(0)
	for i := 0; i < 40; i++ {
		i := i
		eng.At(sim.Time(0).Add(sim.Duration(i)*20*sim.Microsecond), "issue", func() {
			o := &obs{}
			seen = append(seen, o)
			if err := h.Read(0, lba, 1, func(d []byte, st uint16) {
				if st != StatusOK {
					t.Errorf("read %d: status %#x", i, st)
				}
				o.got = append([]byte(nil), d...)
			}); err != nil {
				t.Error(err)
			}
			// The submission has just booked the LBA's channel: its new
			// horizon plus the controller overhead is when readDone fires.
			flashDone := dev.channels[lba%int64(cfg.Channels)].Add(cfg.CtrlOverhead)
			eng.At(flashDone, "sample", func() {
				o.want = make([]byte, cfg.BlockSize)
				dev.ReadSyncInto(o.want, lba, 1)
			})
		})
		eng.At(sim.Time(0).Add(sim.Duration(i)*30*sim.Microsecond+7*sim.Microsecond), "rewrite", func() {
			version++
			dev.WriteSync(lba, pattern(lba, version))
		})
	}
	eng.Run()
	if len(seen) != 40 {
		t.Fatalf("issued %d reads, want 40", len(seen))
	}
	stale := 0
	for i, o := range seen {
		if o.got == nil || o.want == nil {
			t.Fatalf("read %d never completed", i)
		}
		if !bytes.Equal(o.got, o.want) {
			t.Errorf("read %d: payload is not the flash-time snapshot", i)
		}
		final := make([]byte, cfg.BlockSize)
		dev.ReadSyncInto(final, lba, 1)
		if !bytes.Equal(o.got, final) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("every read returned the final version: the tape never separated snapshot time from handler time")
	}
}

// BenchmarkDeviceRead is the queue-pair read of one random 4 KiB block,
// one command in flight: once the device's buffer, context and host
// slot have cycled through their free lists the path allocates nothing.
func BenchmarkDeviceRead(b *testing.B) {
	eng := sim.NewEngine(1)
	h := NewHost(New(eng, DefaultConfig("bench")), nil)
	r := sim.NewRand(1)
	cb := func([]byte, uint16) {}
	one := func() {
		if err := h.Read(0, int64(r.Intn(1<<20)), 1, cb); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
	one()
	if a := testing.AllocsPerRun(200, one); a != 0 {
		b.Fatalf("read allocates %v objects/op in steady state, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
}
