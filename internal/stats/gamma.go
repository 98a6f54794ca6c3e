package stats

import (
	"errors"
	"math"
	"sort"
)

// GammaDist is a two-parameter Gamma distribution with the usual
// shape/scale parameterization: mean = Shape*Scale, variance =
// Shape*Scale². The Taily baseline (Aly et al., SIGIR'13) models the
// per-ISN distribution of document scores for a query with a fitted
// Gamma and estimates how many documents exceed the global K-th score;
// Fig. 6 of the Cottage paper shows why that fit can misestimate the
// tail, which is exactly the failure mode the Cottage-withoutML
// ablation reproduces.
type GammaDist struct {
	Shape float64
	Scale float64
}

// ErrDegenerate is returned when a sample has too little spread (or too
// few points) to admit a Gamma fit.
var ErrDegenerate = errors.New("stats: sample is degenerate, cannot fit Gamma")

// FitGamma estimates a Gamma distribution from the positive entries of xs
// by the method of moments (shape = mean²/var, scale = var/mean), which is
// what Taily's index-time statistics support: it stores only Σx and Σx²
// per term. Returns ErrDegenerate when fewer than two positive values
// exist or the variance vanishes.
func FitGamma(xs []float64) (GammaDist, error) {
	pos := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) < 2 {
		return GammaDist{}, ErrDegenerate
	}
	m := Mean(pos)
	v := Variance(pos)
	if v <= 1e-12 || m <= 0 {
		return GammaDist{}, ErrDegenerate
	}
	return GammaDist{Shape: m * m / v, Scale: v / m}, nil
}

// FitGammaMoments builds the distribution directly from a mean and
// variance, for callers that maintain running moments instead of samples.
func FitGammaMoments(mean, variance float64) (GammaDist, error) {
	if variance <= 1e-12 || mean <= 0 {
		return GammaDist{}, ErrDegenerate
	}
	return GammaDist{Shape: mean * mean / variance, Scale: variance / mean}, nil
}

// Mean returns the distribution mean.
func (g GammaDist) Mean() float64 { return g.Shape * g.Scale }

// Variance returns the distribution variance.
func (g GammaDist) Variance() float64 { return g.Shape * g.Scale * g.Scale }

// CDF returns P(X <= x), the regularized lower incomplete gamma
// P(shape, x/scale).
func (g GammaDist) CDF(x float64) float64 {
	return g.Tail().cdf(x)
}

// TailProb returns P(X > x). Taily uses this to estimate the count of
// documents scoring above the collection-wide K-th score.
func (g GammaDist) TailProb(x float64) float64 {
	return 1 - g.CDF(x)
}

// GammaTail is a GammaDist prepared for many tail queries: lgΓ(Shape),
// which every evaluation of the incomplete gamma needs, is computed once.
// Its answers have the bits of the GammaDist methods.
type GammaTail struct {
	dist    GammaDist
	lgShape float64
}

// Tail prepares g for repeated TailProb calls.
func (g GammaDist) Tail() GammaTail {
	lg, _ := math.Lgamma(g.Shape)
	return GammaTail{dist: g, lgShape: lg}
}

// TailProb returns P(X > x), as GammaDist.TailProb does.
func (t GammaTail) TailProb(x float64) float64 {
	return 1 - t.cdf(x)
}

func (t GammaTail) cdf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaLower(t.dist.Shape, t.lgShape, x/t.dist.Scale)
}

// RegIncGammaLower computes the regularized lower incomplete gamma
// function P(a, x) using the series expansion for x < a+1 and the
// continued fraction for the complement otherwise (Numerical Recipes
// §6.2 structure, implemented from the standard formulas).
func RegIncGammaLower(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	return regIncGammaLower(a, lg, x)
}

// regIncGammaLower is RegIncGammaLower with lg = lgΓ(a) supplied. Both
// expansions are scaled by the prefactor exp(−x + a·ln x − lgΓ(a)); where
// it underflows to 0 the answer is 0 (series) or 1 (continued fraction)
// whatever the expansion's finite value, so the expansion is skipped.
// TestRegIncGammaLowerSkipsExactly holds this to the full evaluation over
// a grid of (a, x).
func regIncGammaLower(a, lg, x float64) float64 {
	if a <= 0 {
		panic("stats: RegIncGammaLower requires a > 0")
	}
	if x < 0 {
		panic("stats: RegIncGammaLower requires x >= 0")
	}
	if x == 0 {
		return 0
	}
	pre := math.Exp(-x + a*math.Log(x) - lg)
	if x < a+1 {
		if pre == 0 {
			return 0
		}
		return gammaSeries(a, x) * pre
	}
	if pre == 0 {
		return 1
	}
	// The conversion rounds the product before the subtraction, so no
	// architecture fuses the two into one FMA.
	return 1 - float64(pre*gammaContinuedFraction(a, x))
}

// gammaSeries evaluates P(a, x) by its power series, without the
// prefactor.
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum
}

// gammaContinuedFraction evaluates Q(a, x) = 1 - P(a, x) by Lentz's
// modified continued fraction, without the prefactor.
func gammaContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// KSDistance returns the two-sided Kolmogorov–Smirnov statistic between the
// empirical distribution of xs and the model g: sup_x |F_n(x) - F(x)|. The
// harness uses it to quantify how badly a Gamma fit misses the real score
// histogram (Fig. 6).
func KSDistance(xs []float64, g GammaDist) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	n := float64(len(c))
	maxDiff := 0.0
	for i, x := range c {
		f := g.CDF(x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if d := math.Abs(f - lo); d > maxDiff {
			maxDiff = d
		}
		if d := math.Abs(f - hi); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}
