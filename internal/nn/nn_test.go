package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cottage/internal/wire"
	"cottage/internal/xrand"
)

// spiralData makes a simple 2D, linearly-inseparable classification set.
func spiralData(n int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	xs := make([][]float64, 0, 2*n)
	ys := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		// Class 0: points inside radius 1; class 1: ring at radius ~2.
		a := rng.Float64() * 2 * math.Pi
		r0 := rng.Float64() * 0.9
		xs = append(xs, []float64{r0 * math.Cos(a), r0 * math.Sin(a)})
		ys = append(ys, 0)
		b := rng.Float64() * 2 * math.Pi
		r1 := 1.6 + rng.Float64()*0.8
		xs = append(xs, []float64{r1 * math.Cos(b), r1 * math.Sin(b)})
		ys = append(ys, 1)
	}
	return xs, ys
}

func TestNewShapes(t *testing.T) {
	n := New(Config{InputDim: 4, Hidden: []int{8, 6}, NumClasses: 3, Seed: 1})
	if len(n.Layers) != 3 {
		t.Fatalf("got %d layers", len(n.Layers))
	}
	if n.Layers[0].In != 4 || n.Layers[0].Out != 8 ||
		n.Layers[1].In != 8 || n.Layers[1].Out != 6 ||
		n.Layers[2].In != 6 || n.Layers[2].Out != 3 {
		t.Fatal("layer shapes wrong")
	}
	want := 4*8 + 8 + 8*6 + 6 + 6*3 + 3
	if n.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", n.NumParams(), want)
	}
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{
		{InputDim: 0, NumClasses: 2},
		{InputDim: 3, NumClasses: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestForwardIsDistribution(t *testing.T) {
	p := New(Config{InputDim: 5, Hidden: []int{16}, NumClasses: 4, Seed: 2}).NewPredictor(1)
	rng := xrand.New(3)
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 5)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		probs := p.Probs(x)
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("invalid probability %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a := New(Config{InputDim: 3, Hidden: []int{8}, NumClasses: 2, Seed: 7})
	b := New(Config{InputDim: 3, Hidden: []int{8}, NumClasses: 2, Seed: 7})
	for li := range a.Layers {
		for i := range a.Layers[li].W {
			if a.Layers[li].W[i] != b.Layers[li].W[i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
	c := New(Config{InputDim: 3, Hidden: []int{8}, NumClasses: 2, Seed: 8})
	if a.Layers[0].W[0] == c.Layers[0].W[0] {
		t.Fatal("different seeds produced identical first weight")
	}
}

func TestTrainLearnsSeparableData(t *testing.T) {
	xs, ys := spiralData(400, 10)
	n := New(Config{InputDim: 2, Hidden: []int{32, 32}, NumClasses: 2, Seed: 1})
	losses, err := n.Train(xs, ys, DefaultTrainConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 400 {
		t.Fatalf("got %d loss entries", len(losses))
	}
	// Loss should drop substantially.
	early := (losses[0] + losses[1] + losses[2]) / 3
	late := (losses[397] + losses[398] + losses[399]) / 3
	if late >= early/2 {
		t.Errorf("loss did not decrease enough: %v -> %v", early, late)
	}
	if acc := n.Accuracy(xs, ys); acc < 0.95 {
		t.Errorf("training accuracy = %v, want >= 0.95", acc)
	}
	// Held-out data from the same distribution.
	tx, ty := spiralData(200, 99)
	if acc := n.Accuracy(tx, ty); acc < 0.93 {
		t.Errorf("test accuracy = %v, want >= 0.93", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	n := New(Config{InputDim: 2, Hidden: []int{4}, NumClasses: 2, Seed: 1})
	if _, err := n.Train(nil, nil, DefaultTrainConfig(10)); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{0, 1}, DefaultTrainConfig(10)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := n.Train([][]float64{{1}}, []int{0}, DefaultTrainConfig(10)); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{5}, DefaultTrainConfig(10)); err == nil {
		t.Error("out-of-range label should fail")
	}
}

func TestNormalizationHelpsScaledFeatures(t *testing.T) {
	// Feature 1 carries the signal but at a tiny scale next to feature 0.
	rng := xrand.New(21)
	n := 600
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		label := i % 2
		noise := rng.NormFloat64() * 1e5
		signal := float64(label)*2 - 1 + rng.NormFloat64()*0.2
		xs[i] = []float64{noise, signal * 1e-3}
		ys[i] = label
	}
	cfg := Config{InputDim: 2, Hidden: []int{16}, NumClasses: 2, Seed: 3}
	withNorm := New(cfg)
	tc := DefaultTrainConfig(300)
	if _, err := withNorm.Train(xs, ys, tc); err != nil {
		t.Fatal(err)
	}
	if acc := withNorm.Accuracy(xs, ys); acc < 0.9 {
		t.Errorf("normalized accuracy = %v, want >= 0.9", acc)
	}
}

func TestAccuracyWithin(t *testing.T) {
	xs, ys := spiralData(200, 33)
	n := New(Config{InputDim: 2, Hidden: []int{16}, NumClasses: 2, Seed: 5})
	if _, err := n.Train(xs, ys, DefaultTrainConfig(200)); err != nil {
		t.Fatal(err)
	}
	if exact := n.Accuracy(xs, ys); exact == 1 {
		t.Fatalf("exact accuracy %v: the within-1 check below needs a miss", exact)
	}
	if within1 := n.AccuracyWithin(xs, ys); within1 != 1 {
		t.Errorf("two-class within-1 accuracy should be 1, got %v", within1)
	}
}

// TestPredictorMatchesForward: two predictors on one network give the
// same forward pass bit for bit, whatever the other ran last (each owns
// its scratch), and Classify, which skips the softmax, is the argmax of
// Probs.
func TestPredictorMatchesForward(t *testing.T) {
	xs, ys := spiralData(100, 44)
	n := New(Config{InputDim: 2, Hidden: []int{8}, NumClasses: 2, Seed: 9})
	if _, err := n.Train(xs, ys, DefaultTrainConfig(50)); err != nil {
		t.Fatal(err)
	}
	p, q := n.NewPredictor(1), n.NewPredictor(1)
	for i := 0; i < 20; i++ {
		q.Probs(xs[len(xs)-1-i])
		want := append([]float64(nil), p.Probs(xs[i])...)
		got := q.Probs(xs[i])
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("predictors diverge at sample %d class %d: %v vs %v", i, c, want[c], got[c])
			}
		}
		if p.Classify(xs[i]) != argmax(want) {
			t.Fatalf("sample %d: Classify %d, argmax of Probs %d", i, p.Classify(xs[i]), argmax(want))
		}
	}
}

// decode reads one network file the way an ISN predictor file's reader
// does, and refuses trailing bytes.
func decode(data []byte) (*Network, error) {
	r := wire.Reader{B: data}
	n, err := Parse(&r)
	if err == nil && len(r.B) != 0 {
		return nil, fmt.Errorf("nn: %d trailing bytes", len(r.B))
	}
	return n, err
}

func TestSerializeRoundTrip(t *testing.T) {
	xs, ys := spiralData(100, 55)
	n := New(Config{InputDim: 2, Hidden: []int{8, 8}, NumClasses: 2, Seed: 6})
	if _, err := n.Train(xs, ys, DefaultTrainConfig(100)); err != nil {
		t.Fatal(err)
	}
	got, err := decode(n.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := n.NewPredictor(1), got.NewPredictor(1)
	for i := 0; i < 20; i++ {
		a := pa.Probs(xs[i])
		b := pb.Probs(xs[i])
		for c := range a {
			if a[c] != b[c] {
				t.Fatal("round trip changed outputs")
			}
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := decode([]byte("not a network")); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestDecodeRejectsMalformedShapes: Decode refuses any network whose
// layers do not chain from the input to the classes, or whose slices are
// not the length their shape implies — the kernels would otherwise read
// past the transposed weights (a 4-input second layer behind a 64-unit
// first one used to decode and classify from out-of-bounds memory).
func TestDecodeRejectsMalformedShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(n *Network)
	}{
		{"layer In does not chain", func(n *Network) {
			n.Layers[1].In = 4
			n.Layers[1].W = n.Layers[1].W[:4*64]
		}},
		{"input dim", func(n *Network) { n.Cfg.InputDim = 14 }},
		{"classes", func(n *Network) { n.Cfg.NumClasses = 12 }},
		{"one class", func(n *Network) {
			last := &n.Layers[2]
			last.Out, last.W, last.B = 1, last.W[:64], last.B[:1]
			n.Cfg.NumClasses = 1
		}},
		{"short W", func(n *Network) { n.Layers[0].W = n.Layers[0].W[:15*64-1] }},
		{"long B", func(n *Network) { n.Layers[2].B = append(n.Layers[2].B, 0) }},
		{"zero-width layer", func(n *Network) {
			n.Layers[0].Out, n.Layers[0].W, n.Layers[0].B = 0, nil, nil
			n.Layers[1].In, n.Layers[1].W = 0, nil
		}},
		{"no layers", func(n *Network) { n.Layers = nil }},
		{"In·Out wraps to zero", func(n *Network) {
			// 2^62 inputs × 4 outputs is 2^64 weights, which wraps to
			// the empty slice's length in int arithmetic.
			n.Cfg.InputDim = 1 << 62
			n.Layers = []layer{
				{In: 1 << 62, Out: 4, B: make([]float64, 4)},
				{In: 4, Out: 11, W: make([]float64, 44), B: make([]float64, 11)},
			}
		}},
		{"normalizer means", func(n *Network) {
			n.Norm = &Normalizer{Mean: make([]float64, 14), Std: make([]float64, 15)}
		}},
		{"normalizer deviations", func(n *Network) {
			n.Norm = &Normalizer{Mean: make([]float64, 15), Std: make([]float64, 16)}
		}},
	} {
		n := New(FastConfig(15, 11, 1))
		tc.mangle(n)
		if got, err := decode(n.Append(nil)); err == nil {
			t.Errorf("%s: decode accepted a malformed network (%d layers)", tc.name, len(got.Layers))
		}
	}
	n := New(FastConfig(15, 11, 1))
	n.Norm = &Normalizer{Mean: make([]float64, 15), Std: make([]float64, 15)}
	for i := range n.Norm.Std {
		n.Norm.Std[i] = 1
	}
	if _, err := decode(n.Append(nil)); err != nil {
		t.Fatalf("well-formed network rejected: %v", err)
	}
}

// TestDecodeRejectsNonFiniteParameters: Decode refuses a network whose
// weights, biases or normalizer would make inference silently wrong — a
// NaN output weight used to decode and turn every probability into NaN,
// and a zero deviation made the normalizer divide by zero.
func TestDecodeRejectsNonFiniteParameters(t *testing.T) {
	withNorm := func(n *Network) *Normalizer {
		n.Norm = &Normalizer{Mean: make([]float64, 15), Std: make([]float64, 15)}
		for i := range n.Norm.Std {
			n.Norm.Std[i] = 1
		}
		return n.Norm
	}
	for _, tc := range []struct {
		name   string
		mangle func(n *Network)
	}{
		{"NaN output weight", func(n *Network) { n.Layers[2].W[7] = math.NaN() }},
		{"+Inf hidden weight", func(n *Network) { n.Layers[0].W[0] = math.Inf(1) }},
		{"-Inf bias", func(n *Network) { n.Layers[1].B[63] = math.Inf(-1) }},
		{"NaN bias", func(n *Network) { n.Layers[2].B[0] = math.NaN() }},
		{"NaN normalizer mean", func(n *Network) { withNorm(n).Mean[3] = math.NaN() }},
		{"infinite normalizer mean", func(n *Network) { withNorm(n).Mean[0] = math.Inf(-1) }},
		{"zero deviation", func(n *Network) { withNorm(n).Std[14] = 0 }},
		{"negative deviation", func(n *Network) { withNorm(n).Std[2] = -1 }},
		{"NaN deviation", func(n *Network) { withNorm(n).Std[5] = math.NaN() }},
		{"infinite deviation", func(n *Network) { withNorm(n).Std[9] = math.Inf(1) }},
	} {
		n := New(FastConfig(15, 11, 1))
		tc.mangle(n)
		if _, err := decode(n.Append(nil)); err == nil {
			t.Errorf("%s: decode accepted the network", tc.name)
		} else if !strings.HasPrefix(err.Error(), "nn: ") {
			t.Errorf("%s: error %q lacks the nn: prefix", tc.name, err)
		}
	}
	n := New(FastConfig(15, 11, 1))
	withNorm(n).Std[4] = 1e-9
	if _, err := decode(n.Append(nil)); err != nil {
		t.Fatalf("well-formed network rejected: %v", err)
	}
}

func TestNormalizer(t *testing.T) {
	xs := [][]float64{{1, 100}, {3, 300}, {5, 500}}
	nm := FitNormalizer(xs)
	if nm.Mean[0] != 3 || nm.Mean[1] != 300 {
		t.Fatalf("means wrong: %v", nm.Mean)
	}
	out := make([]float64, 2)
	nm.Apply([]float64{3, 300}, out)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("centering wrong: %v", out)
	}
	// Constant column gets std 1.
	cm := FitNormalizer([][]float64{{7}, {7}, {7}})
	if cm.Std[0] != 1 {
		t.Errorf("constant column std = %v, want 1", cm.Std[0])
	}
}

func TestTrainingDeterministic(t *testing.T) {
	xs, ys := spiralData(100, 66)
	run := func() float64 {
		n := New(Config{InputDim: 2, Hidden: []int{8}, NumClasses: 2, Seed: 4})
		if _, err := n.Train(xs, ys, DefaultTrainConfig(80)); err != nil {
			t.Fatal(err)
		}
		return n.Layers[0].W[0]
	}
	if run() != run() {
		t.Fatal("training is not deterministic")
	}
}

// benchInputs is a rotating set of 256 standard-normal inputs: with one
// fixed input every branch predicts perfectly and each layer's ReLU
// pattern never changes, which flatters whatever the kernels branch on.
func benchInputs(dim int) [][]float64 {
	rng := xrand.New(31)
	xs := make([][]float64, 256)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	return xs
}

func BenchmarkInferenceFast(b *testing.B) {
	p := New(FastConfig(16, 24, 1)).NewPredictor(1)
	xs := benchInputs(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Classify(xs[i%len(xs)])
	}
}

// BenchmarkInferencePaper measures inference latency for the paper's
// 5x128 architecture — the quantity Figs. 7b/8b report (41-80 us on the
// paper's hardware).
func BenchmarkInferencePaper(b *testing.B) {
	p := New(PaperConfig(16, 24, 1)).NewPredictor(1)
	xs := benchInputs(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Classify(xs[i%len(xs)])
	}
}

func BenchmarkTrainStep(b *testing.B) {
	xs, ys := spiralData(200, 77)
	n := New(Config{InputDim: 2, Hidden: []int{64, 64}, NumClasses: 2, Seed: 1})
	tc := DefaultTrainConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Train(xs, ys, tc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGradientCheck validates backprop against numerical differentiation:
// for a small network and a handful of parameters, the analytic gradient
// must match (f(w+h) - f(w-h)) / 2h.
func TestGradientCheck(t *testing.T) {
	n := New(Config{InputDim: 3, Hidden: []int{5, 4}, NumClasses: 3, Seed: 13})
	x := []float64{0.7, -1.2, 2.3}
	y := 1

	sc := n.newScratch()
	g := newGradients(n)
	g.zero()
	n.backprop(x, y, sc, g)

	p := n.NewPredictor(1)
	loss := func() float64 {
		n.Rebuild() // the perturbation loop below edits Layers directly
		probs := p.Probs(x)
		return -math.Log(probs[y])
	}
	const h = 1e-6
	checks := 0
	for li := range n.Layers {
		l := &n.Layers[li]
		// Check a spread of weight and bias entries per layer.
		for _, wi := range []int{0, len(l.W) / 2, len(l.W) - 1} {
			orig := l.W[wi]
			l.W[wi] = orig + h
			up := loss()
			l.W[wi] = orig - h
			down := loss()
			l.W[wi] = orig
			numeric := (up - down) / (2 * h)
			analytic := g.w[li][wi]
			if diff := math.Abs(numeric - analytic); diff > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("layer %d W[%d]: analytic %v vs numeric %v", li, wi, analytic, numeric)
			}
			checks++
		}
		bi := len(l.B) - 1
		orig := l.B[bi]
		l.B[bi] = orig + h
		up := loss()
		l.B[bi] = orig - h
		down := loss()
		l.B[bi] = orig
		numeric := (up - down) / (2 * h)
		if diff := math.Abs(numeric - g.b[li][bi]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("layer %d B[%d]: analytic %v vs numeric %v", li, bi, g.b[li][bi], numeric)
		}
		checks++
	}
	if checks < 8 {
		t.Fatalf("only %d gradient entries checked", checks)
	}
}
