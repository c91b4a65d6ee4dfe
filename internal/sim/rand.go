package sim

import "math"

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
type Zipf struct {
	r               *Rand
	n               uint64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
}

// NewZipf returns a Zipf generator over [0, n).
func NewZipf(r *Rand, n uint64, theta float64) *Zipf {
	z := &Zipf{r: r, n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
