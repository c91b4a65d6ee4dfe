package sim

import (
	"math"
	"testing"
)

// zipfCases are E6's three working sets, E13's key space and a spread
// of sizes and skews around them.
var zipfCases = []struct {
	n     uint64
	theta float64
}{
	{64, 0.9}, {512, 0.9}, {4096, 0.9}, // E6
	{2000, 0.99}, // E13
	{3, 0.5}, {10, 0.2}, {100, 0.5}, {1000, 0.99}, {1000, 0.75}, {10000, 0.6}, {30000, 0.95},
}

// formulaOnly is z without its table: every tail draw evaluates the
// closed form, as at the commit before the table existed.
func formulaOnly(z *Zipf) *Zipf {
	ref := *z
	ref.bound, ref.guide = nil, nil
	return &ref
}

// TestZipfTableMatchesFormula holds the guide table to the closed form
// it replaces: (a) at and around every bound, (b) by locating where the
// formula really steps and checking the guard band dwarfs the distance
// to the analytic bound, (c) on random draws, (d) on inputs that must
// not get a table at all.
func TestZipfTableMatchesFormula(t *testing.T) {
	draws := 20_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, c := range zipfCases {
		z := NewZipf(NewRand(c.n), c.n, c.theta)
		if z.guide == nil {
			t.Fatalf("n=%d theta=%v: no table built", c.n, c.theta)
		}
		ref := formulaOnly(z)
		check := func(u float64) {
			t.Helper()
			if u < 0 || u >= 1 {
				return
			}
			if got, want := z.rank(u), ref.rank(u); got != want {
				t.Fatalf("n=%d theta=%v: rank(%v) = %d, formula says %d", c.n, c.theta, u, got, want)
			}
		}

		// (a) every bound, displaced by nothing, one ulp, and steps up
		// to twice the guard on both sides.
		for k := uint64(1); k <= c.n; k++ {
			b := z.bound[k]
			check(b)
			check(math.Nextafter(b, 0))
			check(math.Nextafter(b, 1))
			for _, d := range []float64{1e-15, 1e-13, zipfGuard / 2, zipfGuard, 2 * zipfGuard} {
				check(b - d)
				check(b + d)
			}
		}

		// (b) the formula's own step from k-1 to k, found by bisection
		// inside the guard band, against the bound the table stores. A
		// libm whose Pow drifts far enough to erode the margin fails
		// here instead of silently moving a rank.
		worst := 0.0
		for k := uint64(1); k < c.n; k++ {
			lo, hi := z.bound[k]-zipfGuard, z.bound[k]+zipfGuard
			if lo < 0 || hi >= 1 {
				continue
			}
			if z.tail(lo) != k-1 || z.tail(hi) != k {
				t.Fatalf("n=%d theta=%v: formula does not step %d→%d inside the guard band around %v",
					c.n, c.theta, k-1, k, z.bound[k])
			}
			for math.Nextafter(lo, 1) < hi {
				mid := lo + (hi-lo)/2
				if z.tail(mid) >= k {
					hi = mid
				} else {
					lo = mid
				}
			}
			worst = math.Max(worst, math.Abs(hi-z.bound[k]))
		}
		if worst*1000 > zipfGuard {
			t.Fatalf("n=%d theta=%v: formula steps %.3g from its bound; guard %.3g is under 1000× that",
				c.n, c.theta, worst, zipfGuard)
		}

		// (c) random draws, split evenly over the cases.
		r := NewRand(c.n ^ 0x5eed)
		for i := 0; i < draws/len(zipfCases); i++ {
			check(r.Float64())
		}
	}

	// (d) degenerate inputs get no table and stay in range.
	for _, c := range []struct {
		n     uint64
		theta float64
	}{{1, 0.9}, {2, 0.9}, {1, 0}, {2, 0}, {3, 0}, {1000, 0}} {
		z := NewZipf(NewRand(1), c.n, c.theta)
		if z.guide != nil || z.bound != nil {
			t.Fatalf("n=%d theta=%v: table built", c.n, c.theta)
		}
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999, math.Nextafter(1, 0)} {
			if k := z.rank(u); k >= c.n {
				t.Fatalf("n=%d theta=%v: rank(%v) = %d, out of range", c.n, c.theta, u, k)
			}
		}
		for i := 0; i < 10000; i++ {
			if k := z.Next(); k >= c.n {
				t.Fatalf("n=%d theta=%v: Next() = %d, out of range", c.n, c.theta, k)
			}
		}
	}
}

// TestZipfRankBelowN feeds the largest value Float64 can return through
// the rank function. With η < ½ the formula's base rounds to exactly 1
// there and the unclamped rank is n: E6 would look up an object it
// never allocated.
func TestZipfRankBelowN(t *testing.T) {
	top := math.Nextafter(1, 0)
	for _, c := range zipfCases {
		z := NewZipf(NewRand(1), c.n, c.theta)
		for _, g := range []*Zipf{z, formulaOnly(z)} {
			if k := g.rank(top); k >= c.n {
				t.Fatalf("n=%d theta=%v (eta=%v): rank(1-2^-53) = %d, want < n", c.n, c.theta, z.eta, k)
			}
		}
	}
}

func TestNewZipfRejectsMeaninglessParameters(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		theta float64
	}{{0, 0.9}, {10, 1}, {10, 1.5}, {10, -0.1}, {10, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(n=%d, theta=%v) did not panic", c.n, c.theta)
				}
			}()
			NewZipf(NewRand(1), c.n, c.theta)
		}()
	}
}

var zipfSink uint64

// BenchmarkZipfNext is one draw at E6's largest working set: a guide
// lookup and a short scan, no allocation.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(NewRand(1), 4096, 0.9)
	if n := testing.AllocsPerRun(1000, func() { zipfSink += z.Next() }); n != 0 {
		b.Fatalf("Next allocated %v times, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zipfSink += z.Next()
	}
}

// BenchmarkNewZipf is what the table costs to build: one Pow per rank
// beside the one zetan already pays, and three allocations (the
// generator, the bounds, the guide) however large n is.
func BenchmarkNewZipf(b *testing.B) {
	r := NewRand(1)
	if n := testing.AllocsPerRun(10, func() { zipfSink += NewZipf(r, 4096, 0.9).n }); n > 3 {
		b.Fatalf("NewZipf allocated %v times, want at most 3", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zipfSink += NewZipf(r, 4096, 0.9).n
	}
}
