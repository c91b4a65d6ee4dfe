package txn

import (
	"bytes"
	"errors"
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

func setup(t testing.TB) (*seg.SyncView, *Manager, seg.ObjectID, seg.ObjectID) {
	t.Helper()
	v := newView(t)
	m, err := NewManager(v, seg.OID(600, 0))
	if err != nil {
		t.Fatal(err)
	}
	a, b := seg.OID(601, 1), seg.OID(601, 2)
	if _, err := v.Alloc(a, 4096, true, seg.HintAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Alloc(b, 4096, true, seg.HintAuto); err != nil {
		t.Fatal(err)
	}
	return v, m, a, b
}

func TestCommitAppliesAtomically(t *testing.T) {
	v, m, a, b := setup(t)
	tx := m.Begin()
	_ = tx.Write(a, 0, []byte("AAAA"))
	_ = tx.Write(b, 100, []byte("BBBB"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ga, _ := v.ReadAt(a, 0, 4)
	gb, _ := v.ReadAt(b, 100, 4)
	if string(ga) != "AAAA" || string(gb) != "BBBB" {
		t.Fatalf("applied = %q %q", ga, gb)
	}
	if m.Commits != 1 {
		t.Fatalf("commits = %d", m.Commits)
	}
}

func TestAbortAppliesNothing(t *testing.T) {
	v, m, a, _ := setup(t)
	tx := m.Begin()
	_ = tx.Write(a, 0, []byte("ZZZZ"))
	tx.Abort()
	got, _ := v.ReadAt(a, 0, 4)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("abort leaked writes: %q", got)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("commit after abort = %v", err)
	}
}

func TestReadYourWrites(t *testing.T) {
	_, m, a, _ := setup(t)
	tx := m.Begin()
	_ = tx.Write(a, 10, []byte("hello"))
	got, err := tx.Read(a, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 'h', 'e', 'l', 'l', 'o', 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("RYW = %v, want %v", got, want)
	}
}

func TestRecoveryReplaysCommittedUnapplied(t *testing.T) {
	v, m, a, b := setup(t)
	// Transaction 1 commits fully.
	tx1 := m.Begin()
	_ = tx1.Write(a, 0, []byte("ONE!"))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Transaction 2 "crashes" after hardening the record.
	tx2 := m.Begin()
	_ = tx2.Write(a, 4, []byte("TWO!"))
	_ = tx2.Write(b, 0, []byte("TOO!"))
	if err := tx2.CommitWithoutApply(); err != nil {
		t.Fatal(err)
	}
	// Before recovery: tx2 writes not visible.
	got, _ := v.ReadAt(b, 0, 4)
	if string(got) == "TOO!" {
		t.Fatal("unapplied write visible before recovery")
	}
	// "Reboot": reopen the manager and recover.
	m2, err := Open(v, seg.OID(600, 0))
	if err != nil {
		t.Fatal(err)
	}
	n, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d txns, want 1", n)
	}
	ga, _ := v.ReadAt(a, 0, 8)
	gb, _ := v.ReadAt(b, 0, 4)
	if string(ga) != "ONE!TWO!" || string(gb) != "TOO!" {
		t.Fatalf("after recovery: %q %q", ga, gb)
	}
	// Recovery is idempotent.
	n, err = m2.Recover()
	if err != nil || n != 0 {
		t.Fatalf("second recover = %d,%v", n, err)
	}
}

func TestRecoverNothingPending(t *testing.T) {
	_, m, a, _ := setup(t)
	tx := m.Begin()
	_ = tx.Write(a, 0, []byte("x"))
	_ = tx.Commit()
	n, err := m.Recover()
	if err != nil || n != 0 {
		t.Fatalf("recover = %d,%v", n, err)
	}
}

func TestLogChunkRollover(t *testing.T) {
	_, m, a, _ := setup(t)
	data := make([]byte, 4000)
	for i := 0; i < 300; i++ { // ~1.2 MB of records
		tx := m.Begin()
		_ = tx.Write(a, 0, data)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if m.log.Len() < 2 {
		t.Fatalf("chunks = %d, want ≥2", m.log.Len())
	}
}

func TestTooLargeTxn(t *testing.T) {
	_, m, a, _ := setup(t)
	tx := m.Begin()
	_ = tx.Write(a, 0, make([]byte, maxRecBytes))
	if err := tx.Commit(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkCommit(b *testing.B) {
	v := newView(b)
	m, err := NewManager(v, seg.OID(600, 0))
	if err != nil {
		b.Fatal(err)
	}
	a := seg.OID(601, 1)
	if _, err := v.Alloc(a, 4096, true, seg.HintAuto); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin()
		_ = tx.Write(a, int64(i%16)*256, payload)
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOpenCorruptRoot(t *testing.T) {
	// Every count after the magic overruns the block: an error, not an
	// index out of range.
	v, _, _, _ := setup(t)
	root := seg.OID(600, 0)
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
	if _, err := Open(v, root); !errors.Is(err, ErrCorrupt) || !errors.Is(err, seg.ErrCorrupt) {
		t.Fatalf("err = %v, want txn and seg ErrCorrupt", err)
	}
}
