package stats

import (
	"math"
	"testing"
	"testing/quick"

	"cottage/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile of empty slice should be 0")
	}
	if GeometricMean(nil) != 0 || HarmonicMean(nil) != 0 {
		t.Error("means of empty slice should be 0")
	}
}

func TestGeometricHarmonic(t *testing.T) {
	xs := []float64{1, 4, 16}
	if g := GeometricMean(xs); !almostEq(g, 4, 1e-9) {
		t.Errorf("GeometricMean = %v, want 4", g)
	}
	hs := []float64{1, 2, 4}
	if h := HarmonicMean(hs); !almostEq(h, 12.0/7.0, 1e-9) {
		t.Errorf("HarmonicMean = %v, want %v", h, 12.0/7.0)
	}
	// Non-positive entries are ignored.
	if g := GeometricMean([]float64{0, -3, 4, 16}); !almostEq(g, 8, 1e-9) {
		t.Errorf("GeometricMean with zeros = %v, want 8", g)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if p := Percentile(xs, 0); p != 15 {
		t.Errorf("P0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Errorf("P100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 35 {
		t.Errorf("P50 = %v", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Errorf("P25 = %v", p)
	}
	// Input must not be modified.
	shuffled := []float64{50, 15, 40, 20, 35}
	_ = Percentile(shuffled, 50)
	if shuffled[0] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := xrand.New(1)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	if err := quick.Check(func(a, b uint8) bool {
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 1.6, 2.5, -10, 100}, 0, 3, 3)
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	// -10 clamps to bin 0, 100 clamps to bin 2.
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 2 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if f := h.Fraction(0); !almostEq(f, 1.0/3.0, 1e-9) {
		t.Errorf("Fraction(0) = %v", f)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(nil, 0, 1, 0) },
		func() { NewHistogram(nil, 1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegIncGammaLower(1, x); !almostEq(got, want, 1e-10) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := RegIncGammaLower(0.5, x); !almostEq(got, want, 1e-10) {
			t.Errorf("P(0.5,%v) = %v, want %v", x, got, want)
		}
	}
	if RegIncGammaLower(3, 0) != 0 {
		t.Error("P(a,0) must be 0")
	}
}

func TestGammaDistMoments(t *testing.T) {
	g := GammaDist{Shape: 3, Scale: 2}
	if g.Mean() != 6 || g.Variance() != 12 {
		t.Errorf("moments wrong: %v %v", g.Mean(), g.Variance())
	}
}

func TestGammaCDFMonotone(t *testing.T) {
	g := GammaDist{Shape: 2.5, Scale: 1.7}
	prev := -1.0
	for x := 0.0; x < 30; x += 0.25 {
		c := g.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v", x)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of [0,1] at %v: %v", x, c)
		}
		prev = c
	}
	if !almostEq(g.CDF(1000), 1, 1e-9) {
		t.Error("CDF should approach 1")
	}
	if g.TailProb(0) != 1 {
		t.Error("TailProb(0) should be 1")
	}
}

func TestGammaPDFIntegratesToCDF(t *testing.T) {
	g := GammaDist{Shape: 4, Scale: 0.5}
	// The density, for shape > 1 and x > 0 (it is 0 at x = 0).
	pdf := func(x float64) float64 {
		lg, _ := math.Lgamma(g.Shape)
		return math.Exp((g.Shape-1)*math.Log(x) - x/g.Scale - lg - g.Shape*math.Log(g.Scale))
	}
	// Trapezoid integral of the PDF up to x should match CDF(x).
	integral := 0.0
	dx := 0.001
	prev := 0.0
	for x := dx; x <= 5; x += dx {
		cur := pdf(x)
		integral += (prev + cur) / 2 * dx
		prev = cur
	}
	if !almostEq(integral, g.CDF(5), 1e-3) {
		t.Errorf("integral %v vs CDF %v", integral, g.CDF(5))
	}
}

func TestFitGammaRecoversParameters(t *testing.T) {
	r := xrand.New(99)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gamma(2.0, 3.0)
	}
	g, err := FitGamma(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Shape-2.0) > 0.1 {
		t.Errorf("fitted shape = %v, want ~2", g.Shape)
	}
	if math.Abs(g.Scale-3.0) > 0.15 {
		t.Errorf("fitted scale = %v, want ~3", g.Scale)
	}
}

func TestFitGammaDegenerate(t *testing.T) {
	for _, xs := range [][]float64{
		nil,
		{5},
		{5, 5, 5, 5},
		{-1, -2, -3},
		{0, 0, 3},
	} {
		if _, err := FitGamma(xs); err == nil {
			t.Errorf("FitGamma(%v) should fail", xs)
		}
	}
	if _, err := FitGammaMoments(0, 1); err == nil {
		t.Error("FitGammaMoments with zero mean should fail")
	}
	if _, err := FitGammaMoments(1, 0); err == nil {
		t.Error("FitGammaMoments with zero variance should fail")
	}
}

func TestFitGammaIgnoresNonPositive(t *testing.T) {
	xs := []float64{0, 0, 0, 1, 2, 3, 4, 5}
	g, err := FitGamma(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g.Mean(), 3, 1e-9) {
		t.Errorf("mean of positive part = %v, want 3", g.Mean())
	}
}

func TestKSDistance(t *testing.T) {
	r := xrand.New(7)
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gamma(3, 1)
	}
	good := GammaDist{Shape: 3, Scale: 1}
	bad := GammaDist{Shape: 0.5, Scale: 6}
	dGood := KSDistance(xs, good)
	dBad := KSDistance(xs, bad)
	if dGood > 0.02 {
		t.Errorf("KS to true distribution = %v, want small", dGood)
	}
	if dBad < 5*dGood {
		t.Errorf("KS should separate good (%v) from bad (%v) fits", dGood, dBad)
	}
	if KSDistance(nil, good) != 0 {
		t.Error("KS of empty sample should be 0")
	}
}

func BenchmarkGammaCDF(b *testing.B) {
	g := GammaDist{Shape: 2.3, Scale: 1.1}
	for i := 0; i < b.N; i++ {
		_ = g.CDF(float64(i%20) + 0.5)
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := xrand.New(31)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()*2
	}
	lo, hi := BootstrapCI(xs)
	m := Mean(xs)
	if !(lo < m && m < hi) {
		t.Fatalf("mean %v outside CI [%v, %v]", m, lo, hi)
	}
	// Width should be around 2*1.96*sigma/sqrt(n) = ~0.35.
	if w := hi - lo; w < 0.2 || w > 0.6 {
		t.Errorf("CI width %v implausible", w)
	}
	// Deterministic: the seed is fixed.
	lo2, hi2 := BootstrapCI(xs)
	if lo != lo2 || hi != hi2 {
		t.Error("bootstrap not deterministic")
	}
	// Degenerate inputs.
	if l, h := BootstrapCI(nil); l != 0 || h != 0 {
		t.Error("empty input CI should be zero")
	}
	if l, h := BootstrapCI([]float64{7}); l != 7 || h != 7 {
		t.Error("single sample CI should collapse")
	}
}

// refRegIncGammaLower is the full evaluation: the expansion always runs
// and is scaled by the prefactor afterwards.
func refRegIncGammaLower(a, x float64) float64 {
	if x == 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		return gammaSeries(a, x) * math.Exp(-x+a*math.Log(x)-lg)
	}
	return 1 - float64(math.Exp(-x+a*math.Log(x)-lg)*gammaContinuedFraction(a, x))
}

// TestRegIncGammaLowerSkipsExactly: skipping the expansion where its
// prefactor underflows gives the full evaluation's bits, for RegIncGammaLower
// and for a prepared GammaTail, over a log grid of shapes and arguments
// that reaches the underflow on both sides of x = a+1.
func TestRegIncGammaLowerSkipsExactly(t *testing.T) {
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	var skippedSeries, skippedFraction int
	for ea := -3.0; ea <= 7; ea += 0.125 {
		a := math.Pow(10, ea)
		lg, _ := math.Lgamma(a)
		tail := GammaDist{Shape: a, Scale: 1}.Tail()
		xs := []float64{a, a + 1, math.Nextafter(a+1, 0), a * (1 - 1e-9), a * (1 + 1e-9)}
		for ex := -300.0; ex <= 9; ex += 0.25 {
			xs = append(xs, math.Pow(10, ex))
		}
		for _, x := range xs {
			want := refRegIncGammaLower(a, x)
			if got := RegIncGammaLower(a, x); !sameBits(got, want) {
				t.Fatalf("P(%v, %v) = %v, want %v", a, x, got, want)
			}
			if got := tail.TailProb(x); !sameBits(got, 1-want) {
				t.Fatalf("GammaTail(%v).TailProb(%v) = %v, want %v", a, x, got, 1-want)
			}
			if math.Exp(-x+a*math.Log(x)-lg) == 0 {
				if x < a+1 {
					skippedSeries++
				} else {
					skippedFraction++
				}
			}
		}
	}
	if skippedSeries == 0 || skippedFraction == 0 {
		t.Fatalf("the grid skipped %d series and %d continued fractions: it must reach both", skippedSeries, skippedFraction)
	}
}
