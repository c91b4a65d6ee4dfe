package lsm

import (
	"errors"
	"testing"
	"testing/quick"

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

func newTree(t testing.TB, memCap int) *Tree {
	t.Helper()
	tr, err := Create(newView(t), seg.OID(200, 0), true, memCap)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPutGetMemtableOnly(t *testing.T) {
	tr := newTree(t, 1024)
	for i := uint64(0); i < 100; i++ {
		if err := tr.Put(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		got, ok, err := tr.Get(i)
		if err != nil || !ok || got != i*2 {
			t.Fatalf("Get(%d) = %d,%v,%v", i, got, ok, err)
		}
	}
	if tr.Flushes != 0 {
		t.Fatal("unexpected flush")
	}
}

func TestFlushAndGetFromRuns(t *testing.T) {
	tr := newTree(t, 64)
	for i := uint64(0); i < 500; i++ {
		if err := tr.Put(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Flushes == 0 {
		t.Fatal("no flushes at small memtable")
	}
	for i := uint64(0); i < 500; i++ {
		got, ok, err := tr.Get(i)
		if err != nil || !ok || got != i+1 {
			t.Fatalf("Get(%d) = %d,%v,%v", i, got, ok, err)
		}
	}
	if _, ok, _ := tr.Get(10_000); ok {
		t.Fatal("found absent key")
	}
}

func TestNewestVersionWins(t *testing.T) {
	tr := newTree(t, 16)
	for round := uint64(1); round <= 5; round++ {
		for i := uint64(0); i < 64; i++ {
			_ = tr.Put(i, i*1000+round)
		}
	}
	for i := uint64(0); i < 64; i++ {
		got, ok, _ := tr.Get(i)
		if !ok || got != i*1000+5 {
			t.Fatalf("Get(%d) = %d, want round-5 value", i, got)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	tr := newTree(t, 32)
	for i := uint64(0); i < 200; i++ {
		_ = tr.Put(i, i)
	}
	for i := uint64(0); i < 200; i += 2 {
		_ = tr.Delete(i)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		_, ok, err := tr.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) present=%v", i, ok)
		}
	}
}

func TestCompactionReducesRuns(t *testing.T) {
	tr := newTree(t, 16)
	for i := uint64(0); i < 2000; i++ {
		_ = tr.Put(i%300, i)
	}
	_ = tr.Flush()
	runs := tr.Runs()
	if runs[0] >= RunsPerLevel {
		t.Fatalf("L0 runs %d not compacted", runs[0])
	}
	if tr.Compactions == 0 {
		t.Fatal("no compactions happened")
	}
	// All data still visible.
	for k := uint64(0); k < 300; k++ {
		if _, ok, err := tr.Get(k); err != nil || !ok {
			t.Fatalf("lost key %d after compaction (%v)", k, err)
		}
	}
}

func TestWriteAmplificationGrowsWithCompaction(t *testing.T) {
	tr := newTree(t, 16)
	for i := uint64(0); i < 3000; i++ {
		_ = tr.Put(i, i)
	}
	_ = tr.Flush()
	if wa := tr.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification %v, want > 1 with compaction", wa)
	}
}

func TestScanMergesAllSources(t *testing.T) {
	tr := newTree(t, 32)
	for i := uint64(0); i < 300; i++ {
		_ = tr.Put(i*2, i)
	}
	_ = tr.Delete(10)
	var keys []uint64
	if err := tr.Scan(0, 100, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := uint64(0); i < 100; i += 2 {
		if i == 10 {
			continue
		}
		want++
	}
	if len(keys) != want {
		t.Fatalf("scan found %d keys, want %d", len(keys), want)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("scan out of order")
		}
	}
}

func TestOpenRecoversRuns(t *testing.T) {
	v := newView(t)
	tr, err := Create(v, seg.OID(200, 0), true, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		_ = tr.Put(i, i+7)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(v, seg.OID(200, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 100, 499} {
		got, ok, err := tr2.Get(k)
		if err != nil || !ok || got != k+7 {
			t.Fatalf("reopened Get(%d) = %d,%v,%v", k, got, ok, err)
		}
	}
	// Writes after reopen must not collide with existing run objects.
	for i := uint64(1000); i < 1200; i++ {
		if err := tr2.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := tr2.Get(1100); !ok || got != 1100 {
		t.Fatal("post-reopen write lost")
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	f := func(seed uint64) bool {
		tr := newTree(t, 24) // small memtable exercises flush/compaction
		r := sim.NewRand(seed)
		model := map[uint64]uint64{}
		for i := 0; i < 600; i++ {
			k := r.Uint64() % 200
			switch r.Intn(4) {
			case 0, 1, 2:
				val := r.Uint64()
				model[k] = val
				if tr.Put(k, val) != nil {
					return false
				}
			case 3:
				delete(model, k)
				if tr.Delete(k) != nil {
					return false
				}
			}
		}
		for k := uint64(0); k < 200; k++ {
			want, inModel := model[k]
			got, ok, err := tr.Get(k)
			if err != nil || ok != inModel {
				return false
			}
			if ok && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	tr, err := Create(newView(b), seg.OID(200, 0), true, DefaultMemtableCap)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetAfterCompaction(b *testing.B) {
	tr, err := Create(newView(b), seg.OID(200, 0), true, 1024)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 50000; i++ {
		if err := tr.Put(i, i); err != nil {
			b.Fatal(err)
		}
	}
	_ = tr.Flush()
	r := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Get(r.Uint64() % 50000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOpenCorruptManifest(t *testing.T) {
	// A level's run count that overruns the manifest is an error, not
	// an index out of range. Level 0 here, then the last level.
	for _, off := range []int{24, 24 + 2*(MaxLevels-1)} {
		v := newView(t)
		if _, err := Create(v, seg.OID(200, 0), true, 32); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteAt(seg.OID(200, 0), int64(off), []byte{0xFF, 0xFF}); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(v, seg.OID(200, 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}
