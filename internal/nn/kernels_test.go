package nn

import (
	"math"
	"testing"

	"cottage/internal/xrand"
)

// refMatvec is the naive reference: z[o] = bias[o] + Σ_i w[o*k+i]*x[i] in
// canonical order, each product rounded before it is added. Every kernel
// must match it bit for bit.
func refMatvec(z, w, bias, x []float64, out, k int) {
	for o := 0; o < out; o++ {
		s := bias[o]
		for i := 0; i < k; i++ {
			s += float64(w[o*k+i] * x[i])
		}
		z[o] = s
	}
}

type matvecFunc func(z, a, wt, bias, x []float64, out, k int)

type matvecPath struct {
	name string
	fn   matvecFunc
}

// matvecPaths is every implementation of matvecWT this build can run: the
// portable loops on any architecture, plus each CPU dispatch level.
func matvecPaths() []matvecPath {
	return append([]matvecPath{{"portable", matvecWTGo}}, dispatchPaths()...)
}

// sameBits is bit equality, with any NaN equal to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkMatvec runs every path on one input and holds z to the reference
// bit for bit, and the fused activation row to v > 0 ? v : 0 of it. The
// rows are the front of longer buffers whose tails must come back
// untouched: a masked tile may not store past the end of z or a.
func checkMatvec(t *testing.T, w, bias, x []float64, out, k int) {
	t.Helper()
	want := make([]float64, out)
	refMatvec(want, w, bias, x, out, k)
	wt := transpose(w, out, k)
	const guard, sentinel = 16, 12345.5
	guarded := func(fill float64) []float64 {
		buf := make([]float64, out+guard)
		for i := range buf {
			buf[i] = fill
		}
		for i := out; i < len(buf); i++ {
			buf[i] = sentinel
		}
		return buf
	}
	for _, p := range matvecPaths() {
		for _, fused := range []bool{false, true} {
			zbuf := guarded(0)
			z := zbuf[:out:out]
			var a, abuf []float64
			if fused {
				abuf = guarded(math.NaN()) // garbage the kernel must overwrite
				a = abuf[:out:out]
			}
			p.fn(z, a, wt, bias, x, out, k)
			for i := out; i < out+guard; i++ {
				if zbuf[i] != sentinel || (fused && abuf[i] != sentinel) {
					t.Fatalf("%s out=%d k=%d fused=%v: wrote past the row at index %d", p.name, out, k, fused, i)
				}
			}
			for o := range want {
				if !sameBits(z[o], want[o]) {
					t.Fatalf("%s out=%d k=%d fused=%v: z[%d] = %v, want %v", p.name, out, k, fused, o, z[o], want[o])
				}
				if fused {
					r := 0.0
					if want[o] > 0 {
						r = want[o]
					}
					if math.Float64bits(a[o]) != math.Float64bits(r) {
						t.Fatalf("%s out=%d k=%d: a[%d] = %v (bits %#x), want ReLU(%v) = %v", p.name, out, k, o, a[o], math.Float64bits(a[o]), want[o], r)
					}
				}
			}
		}
	}
}

func randSlice(rng *xrand.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// transpose builds the wt layout (wt[i*out+o]) from a row-major W (out×k).
func transpose(w []float64, out, k int) []float64 {
	wt := make([]float64, out*k)
	for o := 0; o < out; o++ {
		for i := 0; i < k; i++ {
			wt[i*out+o] = w[o*k+i]
		}
	}
	return wt
}

// Shapes chosen to exercise every tile path: the 32-lane AVX2 and 16-lane
// SSE2 tiles, the masked AVX2 tail of up to 16 lanes, the 8- and 4-lane
// SSE2 tiles, the SSE2 scalar tail, out < 4, and k = 0 — plus every output
// width from 1 to 31 at k = 1, 15 and 64 (tailShapes), which covers each
// tail mask and the output layers' input widths.
var kernelShapes = append([][2]int{
	{1, 1}, {2, 3}, {3, 5}, {4, 16}, {5, 2}, {6, 7}, {7, 15},
	{8, 8}, {9, 6}, {11, 4}, {12, 13}, {15, 15}, {16, 24},
	{20, 3}, {24, 64}, {128, 128}, {129, 130}, {3, 0},
	{32, 7}, {33, 5}, {35, 3}, {40, 9}, {44, 2}, {63, 3}, {64, 15},
	{11, 64}, {6, 64}, {20, 64}, {70, 1},
}, tailShapes()...)

// tailShapes is every output width from 1 to 31 at k = 1, 15 and 64.
func tailShapes() [][2]int {
	var shapes [][2]int
	for out := 1; out < 32; out++ {
		for _, k := range []int{1, 15, 64} {
			shapes = append(shapes, [2]int{out, k})
		}
	}
	return shapes
}

func TestMatvecWTMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for _, shape := range kernelShapes {
		out, k := shape[0], shape[1]
		checkMatvec(t, randSlice(rng, out*k), randSlice(rng, out), randSlice(rng, k), out, k)
	}
}

// TestMatvecWTNZMatchesReference holds the dense kernel to the reference
// on ReLU-sparse inputs — every other entry an exact +0, what a hidden
// layer feeds the next — which the forward pass multiplies through
// instead of skipping.
func TestMatvecWTNZMatchesReference(t *testing.T) {
	rng := xrand.New(12)
	for _, shape := range kernelShapes {
		out, k := shape[0], shape[1]
		x := randSlice(rng, k)
		for i := range x {
			if i%2 == 0 {
				x[i] = 0
			} else {
				x[i] = relu(x[i])
			}
		}
		checkMatvec(t, randSlice(rng, out*k), randSlice(rng, out), x, out, k)
	}
}

// TestMatvecWTNZAllZero: an all-zero activation row (every unit of the
// layer below dead) must yield exactly the bias, and its ReLU.
func TestMatvecWTNZAllZero(t *testing.T) {
	rng := xrand.New(14)
	for _, shape := range [][2]int{{13, 9}, {64, 64}, {11, 64}} {
		out, k := shape[0], shape[1]
		bias := randSlice(rng, out)
		checkMatvec(t, randSlice(rng, out*k), bias, make([]float64, k), out, k)
		for _, p := range matvecPaths() {
			got := randSlice(rng, out)
			p.fn(got, nil, randSlice(rng, out*k), bias, make([]float64, k), out, k)
			for o := range bias {
				if math.Float64bits(got[o]) != math.Float64bits(bias[o]) {
					t.Fatalf("%s: z[%d] = %v, want bias %v", p.name, o, got[o], bias[o])
				}
			}
		}
	}
}

// TestReLUSpecialValues drives the fused activation through −0, NaN, ±Inf
// and subnormals of both signs on every path: MAXPD against +0 must map
// exactly what v > 0 ? v : 0 maps (−0, NaN and every negative to +0).
func TestReLUSpecialValues(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	for _, k := range []int{0, 1, 5} {
		// Each z is a special bias plus k products of +0 inputs with
		// negative weights: exact −0 terms, which leave every special
		// value (−0 included) as it is.
		for _, out := range []int{len(special), 32 + len(special), 64} {
			bias := make([]float64, out)
			for o := range bias {
				bias[o] = special[o%len(special)]
			}
			w := make([]float64, out*k)
			for i := range w {
				w[i] = -1.5
			}
			checkMatvec(t, w, bias, make([]float64, k), out, k)
		}
	}
	if relu(math.NaN()) != 0 || math.Signbit(relu(math.Copysign(0, -1))) {
		t.Fatal("relu does not map NaN and −0 to +0")
	}
}

// TestMatvecWTSpecialInputs drives every tail width through inputs of
// −0, NaN, ±Inf and subnormals of both signs, one special value per
// input row among ordinary ones, on every path. NaN and infinite inputs
// must give the reference's NaN and ±Inf lanes; the rest must match bit
// for bit, ReLU included.
func TestMatvecWTSpecialInputs(t *testing.T) {
	rng := xrand.New(17)
	special := []float64{
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
	}
	for _, shape := range tailShapes() {
		out, k := shape[0], shape[1]
		for si, v := range special {
			x := randSlice(rng, k)
			x[(si*7)%k] = v
			if k > 1 {
				x[(si*7+1)%k] = 0x1p-1060 // a subnormal beside every special
			}
			checkMatvec(t, randSlice(rng, out*k), randSlice(rng, out), x, out, k)
		}
	}
}

type gradFunc func(gw, act, delta []float64, batch, in, out int)

type gradPath struct {
	name string
	fn   gradFunc
}

// gradPaths is every implementation of gradWT this build can run: the
// portable loop on any architecture, plus each CPU dispatch level.
func gradPaths() []gradPath {
	return append([]gradPath{{"portable", gradWTGo}}, gradDispatchPaths()...)
}

// TestGradWTMatchesReference holds every gradWT path to the per-sample
// reference bit for bit, over every combination of the layer widths the
// predictors use and the tile edges around them, at a full mini-batch,
// one short of it and one row, plus small odd shapes where only the scalar
// tail runs in either orientation. Each gw is the front of a longer buffer
// whose tail must come back untouched.
func TestGradWTMatchesReference(t *testing.T) {
	rng := xrand.New(13)
	var shapes [][3]int
	for _, batch := range []int{1, 31, 32} {
		for _, in := range []int{1, 4, 7, 15, 32, 64} {
			for _, out := range []int{6, 11, 20, 64} {
				shapes = append(shapes, [3]int{batch, in, out})
			}
		}
	}
	shapes = append(shapes,
		[3]int{1, 1, 1}, [3]int{2, 3, 4}, [3]int{3, 5, 2}, [3]int{4, 6, 13},
		[3]int{5, 16, 24}, [3]int{7, 128, 128}, [3]int{6, 130, 9}, [3]int{3, 9, 130}, [3]int{2, 7, 0})
	const guard, sentinel = 16, 12345.5
	for _, shape := range shapes {
		batch, in, out := shape[0], shape[1], shape[2]
		act := randSlice(rng, batch*in)
		delta := randSlice(rng, batch*out)
		// Zero some deltas so the portable loop's zero-skip and the packed
		// kernels (which keep the exact-±0 terms) are both exercised.
		for i := range delta {
			if i%3 == 0 {
				delta[i] = 0
			}
		}
		init := randSlice(rng, out*in)
		// Reference: each element accumulates over ascending batch row r
		// starting from gw's current value — the per-sample backward chain.
		want := make([]float64, out*in)
		copy(want, init)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				s := want[o*in+i]
				for r := 0; r < batch; r++ {
					s += float64(delta[r*out+o] * act[r*in+i])
				}
				want[o*in+i] = s
			}
		}
		for _, p := range gradPaths() {
			buf := make([]float64, out*in+guard)
			copy(buf, init)
			for i := out * in; i < len(buf); i++ {
				buf[i] = sentinel
			}
			p.fn(buf[:out*in], act, delta, batch, in, out)
			for i := range want {
				if !sameBits(buf[i], want[i]) {
					t.Fatalf("%s batch=%d in=%d out=%d: gw[%d] = %v, want %v", p.name, batch, in, out, i, buf[i], want[i])
				}
			}
			for i := out * in; i < len(buf); i++ {
				if buf[i] != sentinel {
					t.Fatalf("%s batch=%d in=%d out=%d: wrote past gw at %d", p.name, batch, in, out, i)
				}
			}
		}
	}
}

func TestAdamBulkMatchesScalar(t *testing.T) {
	rng := xrand.New(15)
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
		params := randSlice(rng, n)
		grad := randSlice(rng, n)
		m := randSlice(rng, n)
		v := randSlice(rng, n)
		for i := range v {
			v[i] *= v[i] // second moments are non-negative
		}
		lr, inv := 0.0009765625, 1.0/32
		// Scalar reference: the exact body of update()'s loop.
		wp := append([]float64(nil), params...)
		wm := append([]float64(nil), m...)
		wv := append([]float64(nil), v...)
		for i := range wp {
			gr := grad[i] * inv
			wm[i] = beta1*wm[i] + (1-beta1)*gr
			wv[i] = beta2*wv[i] + (1-beta2)*gr*gr
			wp[i] -= lr * wm[i] / (math.Sqrt(wv[i]) + epsilon)
		}
		update(params, grad, m, v, lr, inv)
		for i := 0; i < n; i++ {
			if params[i] != wp[i] || m[i] != wm[i] || v[i] != wv[i] {
				t.Fatalf("n=%d elem %d: packed (p=%v m=%v v=%v), scalar (p=%v m=%v v=%v)",
					n, i, params[i], m[i], v[i], wp[i], wm[i], wv[i])
			}
		}
	}
}

// TestForwardBatchMatchesForward: the block path — Predictor.Forward over
// blocks of 1, 7 and 32 rows, with and without the softmax, and dataset
// evaluation (evalBatches, over more rows than one chunk, visiting every
// sample once, in order) — gives every row logits and probabilities
// bit-equal to the per-sample reference forward. The layer widths run the
// 32-lane tile and the masked tail (40 = 32 + 8, 16, 11 classes).
func TestForwardBatchMatchesForward(t *testing.T) {
	xs, ys := spiralData(150, 88)
	n := New(Config{InputDim: 2, Hidden: []int{40, 16}, NumClasses: 11, Seed: 3})
	if _, err := n.Train(xs, ys, DefaultTrainConfig(30)); err != nil {
		t.Fatal(err)
	}
	last := len(n.Layers) - 1
	sc := n.newScratch()
	wantZ := make([][]float64, len(xs))
	wantP := make([][]float64, len(xs))
	for i, x := range xs {
		wantP[i] = append([]float64(nil), n.forward(x, sc)...)
		wantZ[i] = append([]float64(nil), sc.zs[last]...)
	}
	same := func(what string, i int, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s sample %d: %d classes, want %d", what, i, len(got), len(want))
		}
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s sample %d class %d: %v, reference %v", what, i, c, got[c], want[c])
			}
		}
	}

	p := n.NewPredictor(32)
	for _, m := range []int{1, 7, 32} {
		for base := 0; base+m <= len(xs); base += m {
			for r := 0; r < m; r++ {
				copy(p.Input(r), xs[base+r])
			}
			softmax := base%(2*m) == 0
			p.Forward(m, softmax)
			for r := 0; r < m; r++ {
				same("Logits", base+r, p.Logits(r), wantZ[base+r])
				if softmax {
					same("Probabilities", base+r, p.Probabilities(r), wantP[base+r])
				}
			}
		}
	}

	next := 0
	n.evalBatches(xs, func(i int, probs []float64) {
		if i != next {
			t.Fatalf("evalBatches visited sample %d, want %d", i, next)
		}
		next++
		same("evalBatches", i, probs, wantP[i])
	})
	if next != len(xs) {
		t.Fatalf("evalBatches visited %d of %d samples", next, len(xs))
	}
}

func TestTrainMatchesPerSampleReference(t *testing.T) {
	// One batched Train step must produce exactly the gradients of the
	// per-sample reference backprop over the same sampled batch.
	xs, ys := spiralData(60, 99)
	tc := DefaultTrainConfig(1)

	ref := New(Config{InputDim: 2, Hidden: []int{8, 8}, NumClasses: 2, Seed: 21})
	ref.Norm = FitNormalizer(xs)
	rng := xrand.New(tc.Seed).SplitName("batches")
	sc := ref.newScratch()
	g := newGradients(ref)
	g.zero()
	for b := 0; b < batchSize; b++ {
		i := rng.Intn(len(xs))
		ref.backprop(xs[i], ys[i], sc, g)
	}
	opt := newAdam(ref)
	opt.step(ref, g, batchSize)

	got := New(Config{InputDim: 2, Hidden: []int{8, 8}, NumClasses: 2, Seed: 21})
	if _, err := got.Train(xs, ys, tc); err != nil {
		t.Fatal(err)
	}

	for li := range ref.Layers {
		for i, w := range ref.Layers[li].W {
			if got.Layers[li].W[i] != w {
				t.Fatalf("layer %d W[%d]: batched %v, reference %v", li, i, got.Layers[li].W[i], w)
			}
		}
		for i, b := range ref.Layers[li].B {
			if got.Layers[li].B[i] != b {
				t.Fatalf("layer %d B[%d]: batched %v, reference %v", li, i, got.Layers[li].B[i], b)
			}
		}
	}
}

func TestPredictorProbsZeroAlloc(t *testing.T) {
	n := New(FastConfig(15, 24, 1))
	n.Norm = &Normalizer{Mean: make([]float64, 15), Std: make([]float64, 15)}
	for i := range n.Norm.Std {
		n.Norm.Std[i] = 2
	}
	p := n.NewPredictor(32)
	x := make([]float64, 15)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Probs(x) }); allocs != 0 {
		t.Errorf("Predictor.Probs allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Classify(x) }); allocs != 0 {
		t.Errorf("Predictor.Classify allocates %v per run, want 0", allocs)
	}
	for _, softmax := range []bool{true, false} {
		if allocs := testing.AllocsPerRun(100, func() {
			for r := 0; r < 32; r++ {
				copy(p.Input(r), x)
			}
			p.Forward(32, softmax)
			_, _ = p.Logits(31), p.Probabilities(31)
		}); allocs != 0 {
			t.Errorf("Predictor.Forward(32, %v) allocates %v per run, want 0", softmax, allocs)
		}
	}
}
