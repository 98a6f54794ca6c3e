package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/1000 times", same)
	}
}

func TestSplitNameStable(t *testing.T) {
	a := New(9).SplitName("corpus")
	b := New(9).SplitName("corpus")
	c := New(9).SplitName("trace")
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitName not stable for equal names")
	}
	a2 := New(9).SplitName("corpus")
	if a2.Uint64() == c.Uint64() {
		t.Fatal("SplitName gave identical streams for distinct names")
	}
}

func TestSplitNameDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	a.SplitName("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitName advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(11)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	Shuffle(r, s)
	for _, v := range s {
		sum += v
	}
	if sum != 36 || len(s) != 8 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(12)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(14)
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2.0}, {1.0, 1.0}, {2.5, 0.5}, {9.0, 3.0},
	} {
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := r.Gamma(tc.shape, tc.scale)
			if v < 0 {
				t.Fatalf("Gamma(%v,%v) produced negative %v", tc.shape, tc.scale, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean)/wantMean > 0.05 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("Gamma(%v,%v) var = %v, want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	r := New(17)
	z := NewZipf(r, 1.0, 100)
	const n = 200000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		k := z.Draw()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf draw %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 should be about twice as frequent as rank 1 for s=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("Zipf rank0/rank1 ratio = %v, want ~2", ratio)
	}
	if counts[0] <= counts[10] || counts[10] <= counts[99] {
		t.Error("Zipf counts are not decreasing with rank")
	}
}

// searchCDF is the plain binary search for the first CDF entry >= u (the
// last rank if none is), over the whole table.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfDrawMatchesSearch: the guided draw returns the rank the plain
// binary search returns, for the same uniform variate, over a stream of
// draws and at every guide bucket's edges.
func TestZipfDrawMatchesSearch(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 14
	}
	for _, n := range []int{1, 2, 3, 400, 9000, 24000} {
		for _, s := range []float64{0.7, 0.9, 1.05} {
			z := NewZipf(New(uint64(n)), s, n)
			ref := New(uint64(n))
			for i := 0; i < draws; i++ {
				got, want := z.Draw(), searchCDF(z.cdf, ref.Float64())
				if got != want {
					t.Fatalf("n=%d s=%v draw %d: rank %d, want %d", n, s, i, got, want)
				}
			}
			nb := len(z.guide) - 1
			if nb < n || nb&(nb-1) != 0 {
				t.Fatalf("n=%d: guide has %d buckets, want the next power of two", n, nb)
			}
			for b := 0; b < nb; b++ {
				edge := float64(b) / float64(nb)
				for _, u := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := z.Rank(u), searchCDF(z.cdf, u); got != want {
						t.Fatalf("n=%d s=%v u=%v: rank %d, want %d", n, s, u, got, want)
					}
				}
			}
			for _, e := range z.cdf {
				for _, u := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, 1)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := z.Rank(u), searchCDF(z.cdf, u); got != want {
						t.Fatalf("n=%d s=%v u=%v: rank %d, want %d", n, s, u, got, want)
					}
				}
			}
		}
	}
}

func TestZipfN(t *testing.T) {
	z := NewZipf(New(1), 1.2, 42)
	if len(z.cdf) != 42 {
		t.Fatalf("%d ranks, want 42", len(z.cdf))
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(18)
	const n = 100001
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.LogNormal(2, 0.5)
	}
	// Median of LogNormal(mu, sigma) is exp(mu).
	count := 0
	want := math.Exp(2)
	for _, v := range vs {
		if v < want {
			count++
		}
	}
	frac := float64(count) / n
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(New(1), 1.1, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}
