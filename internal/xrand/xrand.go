// Package xrand provides a deterministic, splittable pseudo-random number
// generator plus the handful of non-uniform distributions the rest of the
// repository needs (Zipf, Gamma, log-normal, Poisson, exponential).
//
// Every experiment in this repository must be reproducible from a seed, and
// independent subsystems (corpus generation, trace generation, network
// jitter, ...) must not perturb each other's random streams. math/rand's
// global source satisfies neither requirement, so we use a SplitMix64 core:
// it is tiny, passes BigCrush, and splits cleanly — Split derives an
// independent child stream from a parent without consuming more than one
// value of the parent's sequence.
package xrand

import "math"

// RNG is a SplitMix64 pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New so related seeds don't produce
// correlated streams.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with different
// seeds — even adjacent integers — produce unrelated streams because the
// output function mixes the counter through two rounds of multiplication
// and xor-shift.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// golden gamma: the SplitMix64 counter increment.
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitName derives a child generator keyed by a string label, so subsystems
// can be given stable streams by name regardless of the order in which they
// are created.
func (r *RNG) SplitName(name string) *RNG {
	h := r.state + golden // do not advance the parent
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	child := &RNG{state: h}
	child.Uint64() // decorrelate from the raw hash
	return child
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes s in place using the Fisher-Yates algorithm.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Gamma returns a Gamma(shape, scale) variate using the Marsaglia–Tsang
// squeeze method (with the standard shape<1 boost).
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("xrand: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Zipf draws integers from [0, n) with P(k) proportional to 1/(k+1)^s.
// It precomputes the CDF once, plus a guide table that narrows each
// draw's binary search to the few ranks whose CDF entries straddle the
// uniform variate, so draws cost O(1) on average.
//
// The guide makes no draw differ from a plain binary search over the
// whole CDF: guide[b] is the first rank whose CDF entry is >= b/nb, with
// nb a power of two, so b = int(u*nb) is exact and the first entry >= u
// lies in [guide[b], guide[b+1]].
type Zipf struct {
	rng   *RNG
	cdf   []float64
	guide []int32 // len nb+1
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	nb := 1
	for nb < n {
		nb *= 2
	}
	guide := make([]int32, nb+1)
	k := 0
	for b := range guide {
		for k < n-1 && cdf[k] < float64(b)/float64(nb) {
			k++
		}
		guide[b] = int32(k)
	}
	return &Zipf{rng: rng, cdf: cdf, guide: guide}
}

// Draw returns the next rank.
func (z *Zipf) Draw() int {
	return z.Rank(z.rng.Float64())
}

// Rank returns the first rank whose CDF entry is >= u, or the last rank
// if there is none, for u in [0, 1): the rank Draw returns when the
// generator's Float64 is u. It reads only the sampler's tables, so any
// number of goroutines may call it at once.
func (z *Zipf) Rank(u float64) int {
	b := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
