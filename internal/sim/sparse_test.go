package sim

import (
	"runtime"
	"testing"
)

// TestSparseEnds reads an empty table, materializes pages on both sides
// of a directory edge and one far out, and checks that each is its own
// zeroed page, that At returns the page Get sees, that their neighbours
// stay absent, and that a negative index, read as unsigned, is absent
// too. The far page costs the root slice up to it, one directory and
// the page, not a table sized to the index.
func TestSparseEnds(t *testing.T) {
	var s Sparse[[4]int64]
	const dir = 1 << sparseDirBits
	far := uint64(1) << 20
	idx := []uint64{0, dir - 1, dir, far}
	neg := -1
	for _, i := range append(idx, 1, far+1, uint64(neg)) {
		if s.Get(i) != nil {
			t.Fatalf("empty table has page %d", i)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.At(far)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 20<<10 {
		t.Fatalf("materializing page %d of an empty table allocated %d bytes, want under 20 KiB", far, got)
	}
	for n, i := range idx {
		p := s.At(i)
		if *p != [4]int64{} {
			t.Fatalf("page %d is not zeroed", i)
		}
		p[0] = int64(n + 1)
	}
	for n, i := range idx {
		if p := s.Get(i); p == nil || p[0] != int64(n+1) || s.At(i) != p {
			t.Fatalf("page %d: Get %v, want the page At wrote", i, p)
		}
	}
	for _, i := range []uint64{1, dir - 2, dir + 1, far - 1, far + 1, uint64(neg), uint64(neg) >> 1} {
		if s.Get(i) != nil {
			t.Fatalf("page %d was never materialized but is present", i)
		}
	}
}
