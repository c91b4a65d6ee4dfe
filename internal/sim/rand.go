package sim

import (
	"fmt"
	"math"
)

// Rand is a small, fast, deterministic PRNG (splitmix64-seeded
// xoshiro256**). Device models must draw all randomness from the engine's
// Rand so that simulations replay identically for a given seed.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from a single word via splitmix64.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform Duration in [lo, hi].
func (r *Rand) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed duration with the given mean.
// Used for arrival processes.
func (r *Rand) Exp(mean Duration) Duration {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	d := Duration(-math.Log(u) * float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf generates Zipf-distributed ranks in [0, n) with skew theta
// (theta=0 is uniform; theta≈0.99 is the YCSB default). It uses the
// rejection-inversion-free method of Gray et al. used by YCSB.
//
// The method's tail, rank = ⌊n·(η·u−η+1)^α⌋, is a monotone step
// function of u, so NewZipf tabulates where it steps and rank finds the
// step u falls in without evaluating a power. The table answers only
// when u is zipfGuard away from both neighbouring steps; closer than
// that, and whenever no table was built, tail evaluates the formula.
// The ranks drawn are therefore the formula's, bit for bit (DESIGN §3
// "Guide tables").
type Zipf struct {
	r            *Rand
	n            uint64
	alpha, zetan float64
	eta, second  float64 // second = 1 + 0.5^theta: u·zetan below it is rank 1

	// bound[k], k in 1..n, is the u at which tail steps from rank k-1
	// to k; bound[0] is -Inf and bound[n] is 1. guide[j] is the last
	// rank below n whose bound is at most j/len(guide). Both are nil
	// when no table was built.
	bound []float64
	guide []uint32
}

// zipfGuard is how far u must lie from both neighbouring bounds for the
// table's answer to be taken. The formula's real flip point and the
// analytic bound each carry a rounding error of order 2⁻⁵²/η (measured
// ≤ 10⁻¹⁵ apart over E6's and E13's parameters), so the band is wider
// than the disagreement by six orders of magnitude, and narrow enough
// that only about 2n·10⁻⁹ of the draws pay for the formula.
const zipfGuard = 1e-9

// NewZipf returns a Zipf generator over [0, n). It panics unless n > 0
// and 0 <= theta < 1: outside that the method's exponent is infinite or
// negative and the ranks are meaningless.
func NewZipf(r *Rand, n uint64, theta float64) *Zipf {
	if n == 0 || !(theta >= 0 && theta < 1) {
		panic(fmt.Sprintf("sim: NewZipf(n=%d, theta=%v): want n > 0 and 0 <= theta < 1", n, theta))
	}
	z := &Zipf{r: r, n: n}
	z.zetan = zetaStatic(n, theta)
	zeta2theta := zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2theta/z.zetan)
	z.second = 1.0 + math.Pow(0.5, theta)
	z.buildTable(theta)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// buildTable inverts the tail once: n·(η·u−η+1)^α ≥ k exactly when
// u ≥ ((k/n)^(1−θ) − 1 + η)/η. It leaves the table nil, and so every
// draw to the formula, where that inversion does not hold or is not
// worth having: fewer than three ranks (the tail is never reached),
// theta = 0, η outside (0, 1], or bounds that rounding has not left
// strictly increasing up to exactly 1.
func (z *Zipf) buildTable(theta float64) {
	n := z.n
	if n < 3 || n > math.MaxInt32 || theta <= 0 || !(z.eta > 0 && z.eta <= 1) {
		return
	}
	bound := make([]float64, n+1)
	bound[0] = math.Inf(-1)
	for k := uint64(1); k <= n; k++ {
		bound[k] = (math.Pow(float64(k)/float64(n), 1-theta) - 1 + z.eta) / z.eta
		if !(bound[k] > bound[k-1]) {
			return
		}
	}
	if bound[n] != 1 {
		return
	}
	guide := make([]uint32, 2*n)
	cells := float64(len(guide))
	k := uint64(0)
	for j := range guide {
		edge := float64(j) / cells
		for k+1 < n && bound[k+1] <= edge {
			k++
		}
		guide[j] = uint32(k)
	}
	z.bound, z.guide = bound, guide
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() uint64 { return z.rank(z.r.Float64()) }

// rank maps a uniform u in [0, 1) to its rank.
func (z *Zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	if z.guide != nil {
		// The guide cell starts at or below u (a product rounded up
		// across a cell edge is caught by the guard), so the rank is
		// a few bounds ahead at most; bound[n] = 1 > u ends the scan.
		k := z.guide[int(u*float64(len(z.guide)))]
		for z.bound[k+1] <= u {
			k++
		}
		if u-z.bound[k] >= zipfGuard && z.bound[k+1]-u >= zipfGuard {
			return uint64(k)
		}
	}
	return z.tail(u)
}

// tail is Gray et al.'s closed form, the definition the table is held
// to. The clamp is for u = 1−2⁻⁵³: with η < ½ the base rounds to
// exactly 1 and the product to n.
func (z *Zipf) tail(u float64) uint64 {
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		return z.n - 1
	}
	return k
}
