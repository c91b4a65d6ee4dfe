package colfmt

import (
	"errors"
	"fmt"
	"runtime"
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

func demoSchema() Schema {
	return Schema{Columns: []Column{
		{Name: "ts", Type: TypeInt64},
		{Name: "value", Type: TypeInt64},
		{Name: "tag", Type: TypeString},
	}}
}

func writeDemo(t testing.TB, v *seg.SyncView, rows, perGroup int) seg.ObjectID {
	w := NewWriter(v, demoSchema(), perGroup)
	for i := 0; i < rows; i++ {
		if err := w.Append(int64(i), int64(i%97), fmt.Sprintf("tag-%d", i%10)); err != nil {
			t.Fatal(err)
		}
	}
	id := seg.OID(700, 1)
	if err := w.Close(id, true); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestWriteReadRoundTrip(t *testing.T) {
	v := newView(t)
	id := writeDemo(t, v, 1000, 128)
	r, err := OpenReader(v, id)
	if err != nil {
		t.Fatal(err)
	}
	if r.Groups() != 8 { // ceil(1000/128)
		t.Fatalf("groups = %d, want 8", r.Groups())
	}
	ts, _ := r.Schema.ColumnIndex("ts")
	tag, _ := r.Schema.ColumnIndex("tag")
	total := 0
	for i := 0; i < r.Groups(); i++ {
		b, err := r.ReadGroup(i)
		if err != nil {
			t.Fatal(err)
		}
		for row := 0; row < b.Rows(); row++ {
			global := total + row
			if b.Int64s(ts)[row] != int64(global) {
				t.Fatalf("ts[%d] = %d", global, b.Int64s(ts)[row])
			}
			if b.Strings(tag)[row] != fmt.Sprintf("tag-%d", global%10) {
				t.Fatalf("tag[%d] = %s", global, b.Strings(tag)[row])
			}
		}
		total += b.Rows()
	}
	if total != 1000 {
		t.Fatalf("rows = %d", total)
	}
}

func TestSchemaRecovered(t *testing.T) {
	v := newView(t)
	id := writeDemo(t, v, 10, 4)
	r, err := OpenReader(v, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schema.Columns) != 3 || r.Schema.Columns[2].Name != "tag" || r.Schema.Columns[2].Type != TypeString {
		t.Fatalf("schema = %+v", r.Schema)
	}
}

func TestScanWithPushdown(t *testing.T) {
	v := newView(t)
	id := writeDemo(t, v, 10000, 1000) // ts is monotonically increasing
	r, err := OpenReader(v, id)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := r.Schema.ColumnIndex("ts")
	var hits []int64
	if err := r.ScanInt64("ts", 2500, 3499, func(b *Batch, row int) bool {
		hits = append(hits, b.Int64s(ts)[row])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1000 {
		t.Fatalf("hits = %d, want 1000", len(hits))
	}
	if hits[0] != 2500 || hits[len(hits)-1] != 3499 {
		t.Fatalf("range = [%d,%d]", hits[0], hits[len(hits)-1])
	}
	// ts spans groups of 1000: range [2500,3499] touches groups 2 and 3
	// only; the other 8 skip via min/max.
	if r.GroupsSkipped != 8 {
		t.Fatalf("skipped = %d, want 8", r.GroupsSkipped)
	}
	if r.GroupsRead != 2 {
		t.Fatalf("read = %d, want 2", r.GroupsRead)
	}
}

func TestScanNonFirstColumnNoPushdown(t *testing.T) {
	v := newView(t)
	id := writeDemo(t, v, 2000, 500)
	r, err := OpenReader(v, id)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := r.ScanInt64("value", 0, 0, func(b *Batch, row int) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no rows matched value == 0")
	}
	if r.GroupsSkipped != 0 {
		t.Fatal("pushdown should not fire for non-first column")
	}
	// Early stop works.
	n := 0
	_ = r.ScanInt64("ts", 0, 1999, func(b *Batch, row int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanErrors(t *testing.T) {
	v := newView(t)
	id := writeDemo(t, v, 10, 4)
	r, _ := OpenReader(v, id)
	if err := r.ScanInt64("missing", 0, 1, nil); err == nil {
		t.Fatal("scan of missing column succeeded")
	}
	if err := r.ScanInt64("tag", 0, 1, nil); err == nil {
		t.Fatal("scan of string column as int64 succeeded")
	}
}

func TestAppendRowTypeMismatch(t *testing.T) {
	w := NewWriter(newView(t), demoSchema(), 4)
	if err := w.Append(int64(1), "wrong", "x"); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := w.Append(int64(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := w.AppendInt64s(1, 2, 3); err == nil {
		t.Fatal("AppendInt64s into a string column accepted")
	}
	if w.pending.Rows() != 0 {
		t.Fatalf("a refused row left %d rows behind", w.pending.Rows())
	}
}

func TestOpenReaderRejectsGarbage(t *testing.T) {
	v := newView(t)
	id := seg.OID(700, 9)
	_, _ = v.Alloc(id, 4096, true, seg.HintAuto)
	_ = v.WriteAt(id, 0, []byte{1, 2, 3, 4})
	if _, err := OpenReader(v, id); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestCorruptGroupIsErrCorrupt: a group whose row count or string
// length runs past its chunk is refused, not sliced out of range.
func TestCorruptGroupIsErrCorrupt(t *testing.T) {
	for _, patch := range []struct {
		off  int64
		b    []byte
		what string
	}{
		{0, []byte{0xe8, 0x03, 0, 0}, "1000 rows"},
		{8, []byte{0xff, 0xff}, "a 64 KiB string"},
	} {
		v := newView(t)
		w := NewWriter(v, Schema{Columns: []Column{{Name: "tag", Type: TypeString}}}, 4)
		for _, s := range []string{"a", "bb", "ccc"} {
			if err := w.Append(s); err != nil {
				t.Fatal(err)
			}
		}
		id := seg.OID(700, 2)
		if err := w.Close(id, true); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(v, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.WriteAt(id, r.payloadOff+patch.off, patch.b); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadGroup(0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("group with %s: err = %v, want ErrCorrupt", patch.what, err)
		}
	}
}

func TestPushdownSavesDeviceReads(t *testing.T) {
	v := newView(t)
	id := writeDemo(t, v, 20000, 1000)
	r, _ := OpenReader(v, id)
	v.TakeCost()
	before := v.BytesRead
	_ = r.ScanInt64("ts", 100, 150, func(b *Batch, row int) bool { return true })
	selective := v.BytesRead - before

	r2, _ := OpenReader(v, id)
	before = v.BytesRead
	_ = r2.ScanInt64("ts", 0, 19999, func(b *Batch, row int) bool { return true })
	full := v.BytesRead - before
	if selective*5 > full {
		t.Fatalf("pushdown read %d bytes vs full %d: not selective", selective, full)
	}
}

func BenchmarkScanPushdown(b *testing.B) {
	v := newView(b)
	id := writeDemo(b, v, 100000, 4096)
	r, err := OpenReader(v, id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := r.ScanInt64("ts", 50000, 50100, func(bt *Batch, row int) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterAppendInt64s appends E12's two-column rows. A warm
// writer appends a row into its reused group batch and encodes a full
// group onto the table image: across eight groups it allocates at most
// once per group (the image growing), so zero per row, and the benchmark
// fails otherwise.
func BenchmarkWriterAppendInt64s(b *testing.B) {
	const perGroup = 4096
	w := NewWriter(newView(b), Schema{Columns: []Column{
		{Name: "ts", Type: TypeInt64},
		{Name: "value", Type: TypeInt64},
	}}, perGroup)
	row := int64(0)
	appendRows := func(n int) {
		for ; n > 0; n-- {
			if err := w.AppendInt64s(row, row%1000); err != nil {
				b.Fatal(err)
			}
			row++
		}
	}
	appendRows(perGroup) // the first group sizes the batch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	appendRows(8 * perGroup)
	runtime.ReadMemStats(&m1)
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 8 {
		b.Fatalf("a warm writer allocated %d times over 8 groups, want at most one per group", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	appendRows(b.N)
}
