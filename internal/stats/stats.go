// Package stats provides the descriptive statistics, histogramming and
// score-distribution modelling used throughout the repository: per-term
// score summaries for the predictor features (Tables I and II of the
// paper), latency percentiles for the evaluation figures, and the Gamma
// distribution machinery that the Taily baseline and the
// Cottage-withoutML ablation rely on (Section III-B, Fig. 6).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// GeometricMean returns the geometric mean of the positive entries of xs.
// Non-positive entries are ignored, matching how score statistics treat
// documents with no matching terms. Returns 0 if no entry is positive.
func GeometricMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// HarmonicMean returns the harmonic mean of the positive entries of xs,
// or 0 if no entry is positive.
func HarmonicMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += 1 / x
			n++
		}
	}
	if n == 0 || s == 0 {
		return 0
	}
	return float64(n) / s
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It sorts a copy; the input is not
// modified. Returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	return PercentileSorted(c, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width binning of a sample, as plotted in Fig. 2(a)
// and Fig. 6 of the paper.
type Histogram struct {
	Lo, Hi float64 // range covered; values outside are clamped to edge bins
	Counts []int
}

// NewHistogram bins xs into bins equal-width buckets over [lo, hi].
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: NewHistogram with empty range")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Fraction returns the share of observations falling into bin i.
func (h *Histogram) Fraction(i int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(t)
}

// BootstrapCI estimates a 95 % confidence interval for the mean of xs
// by percentile bootstrap: 200 resamples of len(xs) with replacement,
// each contributing one mean; the interval spans the 2.5th and 97.5th
// percentiles of those means. Deterministic: the seed is fixed at 42.
// Returns (lo, hi); degenerate inputs return the point mean twice.
func BootstrapCI(xs []float64) (lo, hi float64) {
	const resamples, seed = 200, 42
	// A variable, not a constant: (1-level)/2 and the percentiles below
	// are float64 arithmetic, which constant folding would round differently.
	level := 0.95
	if len(xs) == 0 {
		return 0, 0
	}
	m := Mean(xs)
	if len(xs) == 1 {
		return m, m
	}
	// A local SplitMix64 keeps this package free of the xrand dependency
	// (xrand already depends on nothing; stats stays a leaf too).
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	means := make([]float64, resamples)
	for r := range means {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[next()%uint64(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	return PercentileSorted(means, alpha*100), PercentileSorted(means, (1-alpha)*100)
}
