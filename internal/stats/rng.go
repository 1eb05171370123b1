// Package stats provides the deterministic random number generator
// (with categorical sampling) and the mean and percentile that the
// portfolio generator, the synthetic data generators, and the simulators
// share.
//
// Everything in this package is deterministic given a seed, so every
// experiment in the repository is exactly reproducible.
package stats

import "math"

// RNG is a splitmix64 pseudo-random generator. It is deliberately tiny,
// allocation-free, and deterministic across platforms. It is NOT safe for
// concurrent use; give each goroutine its own RNG (see Split).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output by mixing a fixed odd constant.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Box–Muller
// transform. Each call draws two uniforms; simplicity beats caching here.
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Weibull returns a Weibull variate with the given shape k and scale λ
// via inverse-transform sampling: λ·(-ln U)^(1/k). Shape 1 reduces to the
// exponential distribution with mean λ; shape < 1 models the infant
// -mortality failure regime of freshly-rebooted HPC nodes.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Weibull needs positive shape and scale")
	}
	return scale * math.Pow(r.ExpFloat64(), 1/shape)
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Categorical draws an index from the (unnormalized, non-negative) weight
// vector w. It panics if the weights sum to zero or are negative.
func (r *RNG) Categorical(w []float64) int {
	var total float64
	for _, x := range w {
		if x < 0 {
			panic("stats: negative categorical weight")
		}
		total += x
	}
	if total <= 0 {
		panic("stats: categorical weights sum to zero")
	}
	u := r.Float64() * total
	var acc float64
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
