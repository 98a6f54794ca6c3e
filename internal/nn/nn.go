// Package nn implements the feed-forward neural networks Cottage uses for
// its quality and latency predictors: dense layers with ReLU activations,
// a softmax output, sparse categorical cross-entropy loss, and the Adam
// optimizer — the exact architecture/loss/optimizer combination named in
// Section III-B of the paper (5 hidden layers of 128 ReLU neurons, Adam,
// sparse categorical cross-entropy). It replaces the paper's
// TensorFlow/Keras dependency with a self-contained, deterministic
// implementation.
//
// All forward and backward paths — single-sample, batched, every CPU
// dispatch level and the portable loops — accumulate each output in the
// same canonical order (bias first, then products in ascending input
// index; see kernels_amd64.s and kernels.go), so they agree bit for bit
// and training remains deterministic regardless of which path a caller
// takes.
package nn

import (
	"errors"
	"fmt"
	"math"

	"cottage/internal/xrand"
)

// Config describes a network's shape.
type Config struct {
	InputDim   int
	Hidden     []int // neuron count per hidden layer
	NumClasses int
	Seed       uint64 // weight initialization seed
}

// PaperConfig returns the architecture from the paper: five hidden layers
// of 128 neurons. Callers choose input/output dimensions per predictor.
func PaperConfig(inputDim, numClasses int, seed uint64) Config {
	return Config{
		InputDim:   inputDim,
		Hidden:     []int{128, 128, 128, 128, 128},
		NumClasses: numClasses,
		Seed:       seed,
	}
}

// FastConfig returns a reduced architecture (two hidden layers of 64) that
// trains an order of magnitude faster with little accuracy loss on our
// synthetic workloads. The experiment harness uses it by default; the
// paper-sized network is exercised by dedicated benchmarks.
func FastConfig(inputDim, numClasses int, seed uint64) Config {
	return Config{
		InputDim:   inputDim,
		Hidden:     []int{64, 64},
		NumClasses: numClasses,
		Seed:       seed,
	}
}

// layer is one dense layer: out = W·in + b, with W stored row-major
// (W[o*in+i]).
type layer struct {
	In, Out int
	W       []float64
	B       []float64
}

// Network is a feed-forward classifier. Inference runs through a
// Predictor, whose scratch belongs to one goroutine: concurrent callers
// each take their own from NewPredictor and share the trained weights
// read-only. Train must not run concurrently with anything else. Code
// that mutates Layers directly (fine-tuning, perturbation tests) must
// call Rebuild afterwards so the inference kernels see the new weights.
type Network struct {
	Cfg    Config
	Layers []layer
	Norm   *Normalizer // optional input standardization, set by Train

	// wt holds per-layer transposed weight copies (wt[li][i*Out+o]) the
	// column-lane inference kernels read (see kernels_amd64.s). Rebuilt
	// whenever the weights settle: New, Train, Decode, Rebuild.
	wt [][]float64
}

// New builds a network with He-initialized weights (appropriate for ReLU).
func New(cfg Config) *Network {
	if cfg.InputDim <= 0 || cfg.NumClasses <= 1 {
		panic("nn: InputDim must be positive and NumClasses > 1")
	}
	rng := xrand.New(cfg.Seed).SplitName("init")
	dims := append([]int{cfg.InputDim}, cfg.Hidden...)
	dims = append(dims, cfg.NumClasses)
	n := &Network{Cfg: cfg}
	for l := 0; l+1 < len(dims); l++ {
		in, out := dims[l], dims[l+1]
		ly := layer{In: in, Out: out, W: make([]float64, in*out), B: make([]float64, out)}
		scale := math.Sqrt(2.0 / float64(in))
		for i := range ly.W {
			ly.W[i] = rng.NormFloat64() * scale
		}
		n.Layers = append(n.Layers, ly)
	}
	n.Rebuild()
	return n
}

// Rebuild refreshes the transposed weight copies the inference kernels
// read. New, Train and Decode call it automatically; it only needs to be
// called by code that mutates Layers by hand.
func (n *Network) Rebuild() {
	if n.wt == nil {
		n.wt = make([][]float64, len(n.Layers))
	}
	for li := range n.Layers {
		l := &n.Layers[li]
		wt := n.wt[li]
		if len(wt) != l.In*l.Out {
			wt = make([]float64, l.In*l.Out)
			n.wt[li] = wt
		}
		for o := 0; o < l.Out; o++ {
			row := l.W[o*l.In : (o+1)*l.In]
			for i, w := range row {
				wt[i*l.Out+o] = w
			}
		}
	}
}

// NumParams returns the trainable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}

// Predictor runs a trained network over blocks of up to its row count of
// inputs, with reusable scratch: the caller writes raw features into
// Input rows, runs the first m with Forward, and reads each row's Logits
// or Probabilities. Probs and Classify are the one-row case. Each
// goroutine needs its own Predictor; steady-state use allocates nothing.
type Predictor struct {
	net *Network
	bs  *batchScratch
}

// NewPredictor creates inference scratch for blocks of up to rows inputs
// bound to net.
func (n *Network) NewPredictor(rows int) *Predictor {
	if rows < 1 {
		panic("nn: a Predictor needs at least one row")
	}
	return &Predictor{net: n, bs: n.newBatchScratch(rows)}
}

// Input returns input row r for the caller to fill with raw features.
// Forward standardizes it in place.
func (p *Predictor) Input(r int) []float64 {
	d := p.net.Cfg.InputDim
	return p.bs.acts[0][r*d : (r+1)*d : (r+1)*d]
}

// Forward standardizes input rows [0, m) in place and runs them through
// the network. With softmax it also computes each row's class
// probabilities; without, only its logits.
func (p *Predictor) Forward(m int, softmax bool) {
	if nm := p.net.Norm; nm != nil {
		for r := 0; r < m; r++ {
			x := p.Input(r)
			nm.Apply(x, x)
		}
	}
	p.net.forwardBatch(p.bs, m, softmax)
}

// Logits returns row r's output-layer pre-activations from the last
// Forward.
func (p *Predictor) Logits(r int) []float64 {
	c := p.net.Cfg.NumClasses
	return p.bs.zs[len(p.net.Layers)-1][r*c : (r+1)*c : (r+1)*c]
}

// Probabilities returns row r's class distribution from the last Forward,
// which must have computed the softmax.
func (p *Predictor) Probabilities(r int) []float64 {
	c := p.net.Cfg.NumClasses
	return p.bs.acts[len(p.net.Layers)][r*c : (r+1)*c : (r+1)*c]
}

// Probs returns the class distribution for x. The returned slice is reused
// by the next call.
func (p *Predictor) Probs(x []float64) []float64 {
	copy(p.Input(0), x)
	p.Forward(1, true)
	return p.Probabilities(0)
}

// Classify returns the argmax class for x. It skips the softmax — exp is
// strictly increasing, so the logits' argmax is the probabilities' argmax.
func (p *Predictor) Classify(x []float64) int {
	copy(p.Input(0), x)
	p.Forward(1, false)
	return argmax(p.Logits(0))
}

// batchScratch holds flat row-major activations for a block forward pass:
// acts[li] is rows×dim with row r at acts[li][r*dim:].
type batchScratch struct {
	acts [][]float64
	zs   [][]float64
}

func (n *Network) newBatchScratch(rows int) *batchScratch {
	bs := &batchScratch{}
	bs.acts = append(bs.acts, make([]float64, rows*n.Cfg.InputDim))
	for _, l := range n.Layers {
		bs.zs = append(bs.zs, make([]float64, rows*l.Out))
		bs.acts = append(bs.acts, make([]float64, rows*l.Out))
	}
	return bs
}

// forwardBatch is the forward pass of inference and training: it runs the
// first m rows loaded into bs.acts[0] through the network a layer at a
// time, one fused matvecWT+ReLU per row (the transposed weight panel stays
// hot in cache across rows), leaving pre-activations in bs.zs and, with
// softmax, class probabilities in the final bs.acts entry. Each row's
// outputs are bit-identical to the per-sample reference forward. Callers
// must have a current Rebuild (Train refreshes wt every step).
func (n *Network) forwardBatch(bs *batchScratch, m int, softmax bool) {
	last := len(n.Layers) - 1
	for li := range n.Layers {
		l := &n.Layers[li]
		z, in, out := bs.zs[li], bs.acts[li], bs.acts[li+1]
		for r := 0; r < m; r++ {
			var a []float64 // the output layer feeds softmax, not ReLU
			if li < last {
				a = out[r*l.Out : (r+1)*l.Out]
			}
			matvecWT(z[r*l.Out:(r+1)*l.Out], a, n.wt[li], l.B, in[r*l.In:(r+1)*l.In], l.Out, l.In)
		}
	}
	if softmax {
		c := n.Cfg.NumClasses
		z, probs := bs.zs[last], bs.acts[last+1]
		for r := 0; r < m; r++ {
			softmaxRow(z[r*c:(r+1)*c], probs[r*c:(r+1)*c])
		}
	}
}

// evalChunk bounds batch-scratch size for whole-dataset evaluation.
const evalChunk = 256

// evalBatches streams the dataset through forwardBatch in bounded chunks,
// invoking fn once per sample (in order) with its probability row.
func (n *Network) evalBatches(xs [][]float64, fn func(i int, probs []float64)) {
	if len(xs) == 0 {
		return
	}
	p := n.NewPredictor(min(evalChunk, len(xs)))
	for base := 0; base < len(xs); base += evalChunk {
		m := min(evalChunk, len(xs)-base)
		for r := 0; r < m; r++ {
			copy(p.Input(r), xs[base+r])
		}
		p.Forward(m, true)
		for r := 0; r < m; r++ {
			fn(base+r, p.Probabilities(r))
		}
	}
}

func softmaxRow(z, out []float64) {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range z {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// Adam's canonical hyperparameters and the mini-batch size. They are
// typed so that 1-beta1 is the run-time subtraction from the rounded
// 0.9, not an untyped constant folded exactly to 0.1.
const (
	learningRate float64 = 1e-3
	beta1        float64 = 0.9
	beta2        float64 = 0.999
	epsilon      float64 = 1e-8
	batchSize            = 32
)

// TrainConfig controls optimization: Adam with the canonical
// hyperparameters on mini-batches of 32, over inputs standardized to
// zero mean and unit variance with training-set statistics (the Table
// I/II features span six orders of magnitude).
type TrainConfig struct {
	// Steps is the number of gradient steps ("training iterations" in the
	// paper's Figs. 7a/8a — quality converges around 600, latency around
	// 60).
	Steps int
	// Seed drives the mini-batch sampling.
	Seed uint64
}

// DefaultTrainConfig returns steps gradient steps at seed 1.
func DefaultTrainConfig(steps int) TrainConfig {
	return TrainConfig{Steps: steps, Seed: 1}
}

// ErrBadTrainingData is returned when inputs and labels disagree or are
// empty or malformed.
var ErrBadTrainingData = errors.New("nn: invalid training data")

// Train fits the network with Adam on sparse categorical cross-entropy and
// returns the per-step mini-batch loss curve. Labels must lie in
// [0, NumClasses).
//
// The whole mini-batch goes through one GEMM per layer and one fused
// backward pass; every gradient element is accumulated in the same order
// as the per-sample reference (backprop), so the optimization trajectory
// is bit-identical to the unbatched implementation while allocating
// nothing per step.
func (n *Network) Train(xs [][]float64, ys []int, tc TrainConfig) ([]float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d inputs, %d labels", ErrBadTrainingData, len(xs), len(ys))
	}
	for i, x := range xs {
		if len(x) != n.Cfg.InputDim {
			return nil, fmt.Errorf("%w: sample %d has dim %d, want %d", ErrBadTrainingData, i, len(x), n.Cfg.InputDim)
		}
		if ys[i] < 0 || ys[i] >= n.Cfg.NumClasses {
			return nil, fmt.Errorf("%w: label %d out of [0,%d)", ErrBadTrainingData, ys[i], n.Cfg.NumClasses)
		}
	}
	if tc.Steps <= 0 {
		tc.Steps = 100
	}
	n.Norm = FitNormalizer(xs)

	d, c := n.Cfg.InputDim, n.Cfg.NumClasses
	numLayers := len(n.Layers)
	batch := batchSize

	// Standardize the dataset once up front; each batch gather is then a
	// straight copy instead of batchSize normalizer passes per step.
	normX := make([]float64, len(xs)*d)
	for i, x := range xs {
		n.Norm.Apply(x, normX[i*d:(i+1)*d])
	}

	opt := newAdam(n)
	rng := xrand.New(tc.Seed).SplitName("batches")
	grads := newGradients(n)
	bs := n.newBatchScratch(batch)
	maxDim := c
	for _, l := range n.Layers {
		maxDim = max(maxDim, l.In, l.Out)
	}
	cur := make([]float64, batch*maxDim) // delta for the layer being processed
	nxt := make([]float64, batch*maxDim) // delta being built for the layer below
	zeroBias := make([]float64, maxDim)  // +0 start for the propagation kernel
	idx := make([]int, batch)            // this step's sample indices
	losses := make([]float64, 0, tc.Steps)

	for step := 0; step < tc.Steps; step++ {
		// The forward kernels read the transposed copies; refresh them
		// with the weights the optimizer just stepped.
		n.Rebuild()
		grads.zero()
		for b := range idx {
			idx[b] = rng.Intn(len(xs))
		}
		for r, i := range idx {
			copy(bs.acts[0][r*d:(r+1)*d], normX[i*d:(i+1)*d])
		}
		n.forwardBatch(bs, batch, true)

		// Output delta for softmax+CE: p - onehot, and the batch loss.
		probs := bs.acts[numLayers]
		batchLoss := 0.0
		dl := cur[:batch*c]
		copy(dl, probs[:batch*c])
		for r, i := range idx {
			y := ys[i]
			batchLoss += -math.Log(math.Max(probs[r*c+y], 1e-12))
			dl[r*c+y] -= 1
		}
		losses = append(losses, batchLoss/float64(batch))

		for li := numLayers - 1; li >= 0; li-- {
			l := &n.Layers[li]
			gw, gb := grads.w[li], grads.b[li]
			act := bs.acts[li]
			in, out := l.In, l.Out
			delta := cur[:batch*out]
			// Bias gradients: each output's deltas summed over ascending
			// batch row — row-major passes keep the reads contiguous while
			// every gb element still accumulates in reference order.
			gb = gb[:out]
			for r := 0; r < batch; r++ {
				dr := delta[r*out : (r+1)*out]
				for o := range gb {
					gb[o] += dr[o]
				}
			}
			// Weight gradients, whole batch per eight-column panel. The
			// ReLU-masked zero deltas contribute exact ±0 terms, which
			// cannot change sums that started from the +0 gradient, so
			// the dense kernel matches the zero-skipping reference.
			gradWT(gw, act, delta, batch, in, out)
			if li > 0 {
				// Propagate dL/da = Wᵀ·delta per row — matvecWT over W
				// itself (w[o*in+i] is the transposed layout of Wᵀ) from
				// a +0 bias — then apply the ReLU' mask.
				nd := nxt[:batch*in]
				for r := 0; r < batch; r++ {
					matvecWT(nd[r*in:(r+1)*in], nil, l.W, zeroBias, delta[r*out:(r+1)*out], in, out)
				}
				// The mask is an AND of the bits, so it compiles without a
				// branch: about half the pre-activations are ≤ 0, in no
				// order a branch predictor could learn.
				for i2, zv := range bs.zs[li-1][:batch*in] {
					keep := ^uint64(0)
					if zv <= 0 {
						keep = 0
					}
					nd[i2] = math.Float64frombits(math.Float64bits(nd[i2]) & keep)
				}
			}
			cur, nxt = nxt, cur
		}
		opt.step(n, grads, batch)
	}
	n.Rebuild()
	return losses, nil
}

// scratch holds one sample's activations for backprop.
type scratch struct {
	acts [][]float64 // activations per layer, acts[0] is the (normalized) input
	zs   [][]float64 // pre-activations per layer
}

func (n *Network) newScratch() *scratch {
	s := &scratch{}
	s.acts = append(s.acts, make([]float64, n.Cfg.InputDim))
	for _, l := range n.Layers {
		s.zs = append(s.zs, make([]float64, l.Out))
		s.acts = append(s.acts, make([]float64, l.Out))
	}
	return s
}

// forward runs the network on one sample, filling sc, and returns the
// softmax output (aliasing sc's last activation slice). It is the
// per-sample reference forwardBatch is held to. Each hidden layer is one
// dense kernel call that writes both z and its ReLU; the zero activations
// it multiplies through contribute exact ±0 terms, which cannot change a
// sum that started from the bias (DESIGN.md §12).
func (n *Network) forward(x []float64, sc *scratch) []float64 {
	if n.Norm != nil {
		n.Norm.Apply(x, sc.acts[0])
	} else {
		copy(sc.acts[0], x)
	}
	last := len(n.Layers) - 1
	for li := range n.Layers {
		l := &n.Layers[li]
		var a []float64 // the output layer feeds softmax, not ReLU
		if li < last {
			a = sc.acts[li+1]
		}
		matvecWT(sc.zs[li], a, n.wt[li], l.B, sc.acts[li], l.Out, l.In)
	}
	out := sc.acts[last+1]
	softmaxRow(sc.zs[last], out)
	return out
}

// backprop runs one forward/backward pass, accumulating into g, and
// returns the sample's cross-entropy loss. It is the reference
// implementation the gradient-check test exercises; Train's batched path
// accumulates exactly the same sums in the same order.
func (n *Network) backprop(x []float64, y int, sc *scratch, g *gradients) float64 {
	probs := n.forward(x, sc)
	loss := -math.Log(math.Max(probs[y], 1e-12))

	L := len(n.Layers)
	// delta starts as dL/dz for the softmax+CE output layer: p - onehot.
	delta := make([]float64, len(probs))
	copy(delta, probs)
	delta[y] -= 1

	for li := L - 1; li >= 0; li-- {
		l := &n.Layers[li]
		act := sc.acts[li] // input to this layer
		gw := g.w[li]
		gb := g.b[li]
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			gb[o] += d
			row := gw[o*l.In : (o+1)*l.In]
			for i, a := range act {
				row[i] += float64(d * a)
			}
		}
		if li == 0 {
			break
		}
		// Propagate: dL/da_{li-1} = W^T delta, masked by ReLU'.
		prevZ := sc.zs[li-1]
		next := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			row := l.W[o*l.In : (o+1)*l.In]
			for i, w := range row {
				next[i] += float64(w * d)
			}
		}
		for i := range next {
			if prevZ[i] <= 0 {
				next[i] = 0
			}
		}
		delta = next
	}
	return loss
}

// Accuracy returns the exact-class accuracy over the dataset.
func (n *Network) Accuracy(xs [][]float64, ys []int) float64 {
	correct := 0
	n.evalBatches(xs, func(i int, probs []float64) {
		if argmax(probs) == ys[i] {
			correct++
		}
	})
	return float64(correct) / float64(len(xs))
}

// AccuracyWithin returns the fraction of samples whose predicted class is
// within one bin of the true class — the paper's notion of an "accurate"
// latency prediction over binned service times.
func (n *Network) AccuracyWithin(xs [][]float64, ys []int) float64 {
	correct := 0
	n.evalBatches(xs, func(i int, probs []float64) {
		d := argmax(probs) - ys[i]
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			correct++
		}
	})
	return float64(correct) / float64(len(xs))
}

// gradients mirrors the network's parameter shapes.
type gradients struct {
	w [][]float64
	b [][]float64
}

func newGradients(n *Network) *gradients {
	g := &gradients{}
	for _, l := range n.Layers {
		g.w = append(g.w, make([]float64, len(l.W)))
		g.b = append(g.b, make([]float64, len(l.B)))
	}
	return g
}

func (g *gradients) zero() {
	for _, w := range g.w {
		clear(w)
	}
	for _, b := range g.b {
		clear(b)
	}
}

// adam holds first/second moment estimates per parameter.
type adam struct {
	mw, vw [][]float64
	mb, vb [][]float64
	t      int
}

func newAdam(n *Network) *adam {
	a := &adam{}
	for _, l := range n.Layers {
		a.mw = append(a.mw, make([]float64, len(l.W)))
		a.vw = append(a.vw, make([]float64, len(l.W)))
		a.mb = append(a.mb, make([]float64, len(l.B)))
		a.vb = append(a.vb, make([]float64, len(l.B)))
	}
	return a
}

func (a *adam) step(n *Network, g *gradients, batchSize int) {
	a.t++
	lr := learningRate *
		math.Sqrt(1-math.Pow(beta2, float64(a.t))) /
		(1 - math.Pow(beta1, float64(a.t)))
	inv := 1 / float64(batchSize)
	for li := range n.Layers {
		update(n.Layers[li].W, g.w[li], a.mw[li], a.vw[li], lr, inv)
		update(n.Layers[li].B, g.b[li], a.mb[li], a.vb[li], lr, inv)
	}
}

func update(params, grad, m, v []float64, lr, inv float64) {
	for i := adamBulk(params, grad, m, v, lr, inv); i < len(params); i++ {
		gr := grad[i] * inv
		m[i] = beta1*m[i] + (1-beta1)*gr
		v[i] = beta2*v[i] + (1-beta2)*gr*gr
		params[i] -= lr * m[i] / (math.Sqrt(v[i]) + epsilon)
	}
}
