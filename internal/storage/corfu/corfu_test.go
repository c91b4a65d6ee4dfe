package corfu

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hyperion/internal/nvme"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
)

func newView(t testing.TB) *seg.SyncView {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := nvme.DefaultConfig("nvme")
	cfg.Blocks = 1 << 20
	host := nvme.NewHost(nvme.New(eng, cfg), nil)
	scfg := seg.DefaultConfig()
	scfg.DRAMBytes = 64 << 20
	scfg.CheckpointEvery = 0
	return seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{host}))
}

func newLog(t testing.TB, unitCount, entrySize int) (*seg.SyncView, *Log) {
	t.Helper()
	v := newView(t)
	var units []*Unit
	for i := 0; i < unitCount; i++ {
		u, err := NewUnit(v, seg.OID(uint64(400+i), 0), entrySize, true)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	l, err := NewLog(&Sequencer{}, units)
	if err != nil {
		t.Fatal(err)
	}
	return v, l
}

func TestAppendReadRoundTrip(t *testing.T) {
	_, l := newLog(t, 4, 512)
	var want [][]byte
	for i := 0; i < 100; i++ {
		data := []byte(fmt.Sprintf("entry-%03d", i))
		pos, err := l.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		if pos != uint64(i) {
			t.Fatalf("pos = %d, want %d", pos, i)
		}
		want = append(want, data)
	}
	for i, w := range want {
		got, err := l.Read(uint64(i))
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("Read(%d) = %q,%v", i, got, err)
		}
	}
}

func TestWriteOnce(t *testing.T) {
	_, l := newLog(t, 2, 128)
	pos, err := l.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	u, slot := l.unitFor(pos)
	if err := u.Write(slot, []byte("second")); !errors.Is(err, ErrWritten) {
		t.Fatalf("rewrite err = %v, want ErrWritten", err)
	}
}

func TestReadUnwrittenAndHoles(t *testing.T) {
	_, l := newLog(t, 2, 128)
	if _, err := l.Read(5); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("unwritten err = %v", err)
	}
	// Simulate a crashed appender: reserve a position but never write.
	hole := l.Seq.Next(1)
	_, _ = l.Append([]byte("after-hole"))
	if err := l.Fill(hole); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(hole); !errors.Is(err, ErrFilled) {
		t.Fatalf("filled err = %v", err)
	}
	// Fill of a written position must fail.
	if err := l.Fill(hole + 1); !errors.Is(err, ErrWritten) {
		t.Fatalf("fill written err = %v", err)
	}
}

func TestTrim(t *testing.T) {
	_, l := newLog(t, 2, 128)
	for i := 0; i < 10; i++ {
		_, _ = l.Append([]byte{byte(i)})
	}
	if err := l.Trim(5); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(3); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("trimmed err = %v", err)
	}
	if got, err := l.Read(7); err != nil || got[0] != 7 {
		t.Fatalf("beyond trim = %v,%v", got, err)
	}
}

func TestStripingBalancesUnits(t *testing.T) {
	_, l := newLog(t, 4, 128)
	for i := 0; i < 400; i++ {
		_, _ = l.Append([]byte("x"))
	}
	for i, u := range l.units {
		if u.Writes != 100 {
			t.Fatalf("unit %d writes = %d, want 100", i, u.Writes)
		}
	}
}

func TestEntrySizeEnforced(t *testing.T) {
	_, l := newLog(t, 1, 64)
	if _, err := l.Append(make([]byte, 65)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestSequencerBatching(t *testing.T) {
	s := &Sequencer{}
	p1 := s.Next(8)
	p2 := s.Next(1)
	if p1 != 0 || p2 != 8 {
		t.Fatalf("batch positions %d %d", p1, p2)
	}
	if s.Issued != 9 {
		t.Fatalf("issued = %d", s.Issued)
	}
}

func TestSequencerRecover(t *testing.T) {
	_, l := newLog(t, 3, 128)
	for i := 0; i < 50; i++ {
		_, _ = l.Append([]byte("e"))
	}
	fresh := &Sequencer{}
	if err := fresh.Recover(l); err != nil {
		t.Fatal(err)
	}
	if fresh.next != 50 {
		t.Fatalf("recovered tail = %d, want 50", fresh.next)
	}
	// Recovery must skip over a trailing hole within a stripe.
	hole := l.Seq.Next(1)
	_, _ = l.Append([]byte("after"))
	_ = hole
	fresh2 := &Sequencer{}
	if err := fresh2.Recover(l); err != nil {
		t.Fatal(err)
	}
	if fresh2.next != 52 {
		t.Fatalf("recovered tail with hole = %d, want 52", fresh2.next)
	}
}

func TestUnitReopen(t *testing.T) {
	v := newView(t)
	u, err := NewUnit(v, seg.OID(400, 0), 256, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if err := u.Write(i, []byte(fmt.Sprintf("slot-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	u2, err := OpenUnit(v, seg.OID(400, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := u2.Read(7)
	if err != nil || string(got) != "slot-7" {
		t.Fatalf("reopened read = %q,%v", got, err)
	}
	// Write-once survives reopen.
	if err := u2.Write(7, []byte("x")); !errors.Is(err, ErrWritten) {
		t.Fatalf("rewrite after reopen err = %v", err)
	}
}

func TestChunkGrowth(t *testing.T) {
	v, l := newLog(t, 1, 4096)
	_ = v
	// 4 KB entries + header → >1 chunk after ~255 appends.
	for i := 0; i < 600; i++ {
		if _, err := l.Append(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if l.units[0].chunks.Len() < 2 {
		t.Fatalf("chunks = %d, want ≥2", l.units[0].chunks.Len())
	}
	if _, err := l.Read(599); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	v := newView(b)
	var units []*Unit
	for i := 0; i < 4; i++ {
		u, err := NewUnit(v, seg.OID(uint64(400+i), 0), 512, true)
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, u)
	}
	l, _ := NewLog(&Sequencer{}, units)
	data := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteLeavesNoStaleCellBytes pins what the stored cell holds when a
// short entry follows a long one through the unit's reused staging
// buffer: state, length, the data, and zeros after it — the bytes a
// freshly made cell would have carried.
func TestWriteLeavesNoStaleCellBytes(t *testing.T) {
	v := newView(t)
	u, err := NewUnit(v, seg.OID(400, 0), 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Write(0, bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := u.Write(1, []byte("short")); err != nil {
		t.Fatal(err)
	}
	id, off, err := u.locate(1, false)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := v.ReadAt(id, off, int64(u.cellBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, u.cellBytes)
	copy(want, []byte{slotWritten, 5, 0, 0, 0})
	copy(want[5:], "short")
	if !bytes.Equal(cell, want) {
		t.Fatalf("cell after a longer write = %x, want %x", cell, want)
	}
}

func TestOpenUnitCorruptRoot(t *testing.T) {
	root := seg.OID(400, 0)
	t.Run("root", func(t *testing.T) {
		// Every count after the magic overruns the block.
		v, _ := newLog(t, 1, 256)
		img, err := v.ReadAt(root, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for i := 4; i < len(img); i++ {
			img[i] = 0xFF
		}
		if err := v.WriteAt(root, 0, img); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenUnit(v, root); !errors.Is(err, ErrCorrupt) || !errors.Is(err, seg.ErrCorrupt) {
			t.Fatalf("err = %v, want corfu and seg ErrCorrupt", err)
		}
	})
	t.Run("entry size", func(t *testing.T) {
		// A zero entry size used to divide by zero on the first access.
		for _, size := range []uint64{0, maxEntrySize + 1} {
			v, _ := newLog(t, 1, 256)
			chunks, err := seg.OpenChunkList(v, root, unitMagic)
			if err != nil {
				t.Fatal(err)
			}
			chunks.Owner = size
			if err := chunks.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenUnit(v, root); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("entry size %d: err = %v, want ErrCorrupt", size, err)
			}
		}
	})
}
