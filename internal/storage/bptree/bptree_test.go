package bptree

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
	scfg.CheckpointEvery = 0 // avoid async checkpoints in sync tests
	return seg.NewSyncView(seg.New(eng, scfg, []*nvme.Host{host}))
}

func newTree(t testing.TB, v *seg.SyncView) *Tree {
	t.Helper()
	tr, err := Create(v, seg.OID(100, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertGetSmall(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	for i := uint64(0); i < 50; i++ {
		if err := tr.Insert(i*3, i*100); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 50; i++ {
		got, ok, err := tr.Get(i * 3)
		if err != nil || !ok || got != i*100 {
			t.Fatalf("Get(%d) = %d,%v,%v", i*3, got, ok, err)
		}
	}
	if _, ok, _ := tr.Get(1); ok {
		t.Fatal("found absent key")
	}
}

func TestInsertOverwrite(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	_ = tr.Insert(5, 1)
	_ = tr.Insert(5, 2)
	got, ok, _ := tr.Get(5)
	if !ok || got != 2 {
		t.Fatalf("overwrite = %d", got)
	}
}

func TestSplitsGrowHeight(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	if tr.Height() != 1 {
		t.Fatalf("initial height %d", tr.Height())
	}
	const n = 10000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d after %d inserts", tr.Height(), n)
	}
	if tr.Splits == 0 {
		t.Fatal("no splits recorded")
	}
	for _, k := range []uint64{0, 1, n / 2, n - 1} {
		got, ok, err := tr.Get(k)
		if err != nil || !ok || got != k {
			t.Fatalf("Get(%d) = %d,%v,%v", k, got, ok, err)
		}
	}
}

func TestDescendingAndRandomInserts(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	r := sim.NewRand(7)
	keys := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := r.Uint64() % 100000
		keys[k] = k + 1
		if err := tr.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range keys {
		got, ok, err := tr.Get(k)
		if err != nil || !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v,%v want %d", k, got, ok, err, want)
		}
	}
}

func TestScan(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	for i := uint64(0); i < 3000; i++ {
		_ = tr.Insert(i*2, i)
	}
	var got []uint64
	if err := tr.Scan(100, 200, func(k, val uint64) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("scan returned %d keys, want 50", len(got))
	}
	for i, k := range got {
		if k != 100+uint64(i)*2 {
			t.Fatalf("scan out of order at %d: %d", i, k)
		}
	}
	// Early stop.
	count := 0
	_ = tr.Scan(0, 6000, func(k, val uint64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestOpenPersistedTree(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	for i := uint64(0); i < 2000; i++ {
		_ = tr.Insert(i, i*7)
	}
	tr2, err := Open(v, seg.OID(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Height() != tr.Height() {
		t.Fatalf("height %d vs %d", tr2.Height(), tr.Height())
	}
	got, ok, err := tr2.Get(1234)
	if err != nil || !ok || got != 1234*7 {
		t.Fatalf("reopened Get = %d,%v,%v", got, ok, err)
	}
	// Inserting through the reopened handle must not collide ids.
	if err := tr2.Insert(999999, 1); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = tr2.Get(999999)
	if !ok || got != 1 {
		t.Fatal("insert after reopen failed")
	}
}

func TestCostAccumulates(t *testing.T) {
	v := newView(t)
	tr := newTree(t, v)
	for i := uint64(0); i < 5000; i++ {
		_ = tr.Insert(i, i)
	}
	v.TakeCost()
	if _, _, err := tr.Get(42); err != nil {
		t.Fatal(err)
	}
	cost := v.TakeCost()
	if cost <= 0 {
		t.Fatal("lookup accumulated no cost")
	}
	// A durable tree on NVMe: a height-2 lookup costs at least two flash
	// reads minus caching (none here) ≈ 140 µs.
	if cost < 100*sim.Microsecond {
		t.Fatalf("lookup cost %v implausibly low for NVMe-resident tree", cost)
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	// The tree must agree with a map model under random workloads.
	f := func(seed uint64) bool {
		v := newView(t)
		tr := newTree(t, v)
		r := sim.NewRand(seed)
		model := map[uint64]uint64{}
		for i := 0; i < 800; i++ {
			k, val := r.Uint64()%500, r.Uint64()
			model[k] = val
			if tr.Insert(k, val) != nil {
				return false
			}
		}
		for k, want := range model {
			got, ok, err := tr.Get(k)
			if err != nil || !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyScanMatchesModel closes the oracle gaps in
// TestPropertyMatchesModel: after a random insert/overwrite workload,
// keys never inserted must read back absent, and a full-range Scan must
// visit exactly the model's keys in sorted order — so structural damage
// that happens to preserve point lookups (lost leaves, broken sibling
// links, misordered splits) still gets caught.
func TestPropertyScanMatchesModel(t *testing.T) {
	f := func(seed uint64) bool {
		v := newView(t)
		tr := newTree(t, v)
		r := sim.NewRand(seed)
		model := map[uint64]uint64{}
		for i := 0; i < 600; i++ {
			k, val := r.Uint64()%400, r.Uint64()
			model[k] = val
			if tr.Insert(k, val) != nil {
				return false
			}
		}
		// Every key never inserted must be absent.
		for k := uint64(0); k < 400; k++ {
			if _, inModel := model[k]; inModel {
				continue
			}
			if _, ok, err := tr.Get(k); err != nil || ok {
				return false
			}
		}
		// A full scan yields the model, sorted, each exactly once.
		var prev uint64
		first := true
		seen := 0
		err := tr.Scan(0, ^uint64(0), func(k, val uint64) bool {
			if !first && k <= prev {
				return false
			}
			first, prev = false, k
			want, ok := model[k]
			if !ok || want != val {
				return false
			}
			seen++
			return true
		})
		return err == nil && seen == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStepRejectsGarbage(t *testing.T) {
	if _, _, _, _, err := Step(make([]byte, 10), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short err = %v", err)
	}
	buf := make([]byte, NodeBytes)
	buf[0] = 99
	if _, _, _, _, err := Step(buf, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind err = %v", err)
	}
}
