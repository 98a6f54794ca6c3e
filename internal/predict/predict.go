// Package predict implements Cottage's two distributed predictors
// (Section III-B/C of the paper) and the Gamma-distribution quality
// estimator used by the Taily baseline and the Cottage-withoutML
// ablation.
//
// Each ISN owns three neural networks, all trained on ground truth
// harvested by replaying training queries exhaustively on that ISN's own
// index:
//
//   - quality-K: how many of this ISN's documents end up in the *global*
//     top-K (classes 0..K) — Table I features;
//   - quality-K/2: the same for the global top-K/2 (classes 0..K/2);
//   - latency: the query's service cost in cycles at the default
//     frequency, binned into log-spaced classes — Table II features.
//
// The latency predictor returns cycles rather than milliseconds so the
// paper's Eq. 1 frequency scaling and Eq. 2 queueing adjustment apply
// cleanly on top.
package predict

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cottage/internal/cluster"
	"cottage/internal/features"
	"cottage/internal/index"
	"cottage/internal/nn"
	"cottage/internal/par"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// Sample is one (query, ISN) training observation.
type Sample struct {
	QualityVec [features.QualityDim]float64
	LatencyVec [features.LatencyDim]float64
	Matched    bool
	QK         int     // documents contributed to the global top-K
	QK2        int     // documents contributed to the global top-K/2
	Cycles     float64 // measured service cost at the reference strategy
}

// Dataset holds harvested samples, PerISN[isn][query].
type Dataset struct {
	PerISN [][]Sample
}

// Harvest replays queries exhaustively against every shard, merges the
// global top-K/top-K/2, and records per-ISN quality labels, latency
// labels (via the cost model), and feature vectors. strat selects the ISN
// evaluation strategy whose work is being predicted (the engine uses
// MaxScore, like a production engine).
func Harvest(shards []*index.Shard, queries []trace.Query, k int,
	strat search.Strategy, cost cluster.CostModel) *Dataset {

	ds := &Dataset{PerISN: make([][]Sample, len(shards))}
	for i := range ds.PerISN {
		ds.PerISN[i] = make([]Sample, len(queries))
	}
	harvestOne := func(qi int) {
		q := queries[qi]
		perShard := make([]search.Result, len(shards))
		for si, s := range shards {
			perShard[si] = search.Eval(strat, s, q.Terms, k)
		}
		lists := make([][]search.Hit, len(shards))
		for si := range perShard {
			lists[si] = perShard[si].Hits
		}
		inK := search.Merge(k, lists...)
		inK2 := search.Merge(k/2, lists...)
		for si, s := range shards {
			sm := &ds.PerISN[si][qi]
			sm.Matched = features.Extract(s, q.Terms, &sm.QualityVec, &sm.LatencyVec)
			sm.QK = search.CountIn(perShard[si].Hits, inK)
			sm.QK2 = search.CountIn(perShard[si].Hits, inK2)
			sm.Cycles = cost.Cycles(perShard[si].Stats)
		}
	}
	// Queries are independent and every write is index-addressed, so the
	// harvest parallelizes across CPUs deterministically.
	par.For(len(queries), harvestOne)
	return ds
}

// Bins maps continuous cycle counts onto log-spaced classes. The paper's
// latency predictor "has more neurons on the output layer due to the
// higher variability of a query's service time"; log-spaced bins give
// constant relative resolution across the 4–65 ms range.
type Bins struct {
	LogLo, LogHi float64
	N            int
}

// FitBins spans the observed (positive) cycle range with n bins.
func FitBins(cycles []float64, n int) Bins {
	if n <= 1 {
		panic("predict: need at least 2 bins")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cycles {
		if c <= 0 {
			continue
		}
		l := math.Log(c)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if math.IsInf(lo, 1) {
		// Degenerate: no positive samples; any bin layout works.
		lo, hi = 0, 1
	}
	if hi-lo < 1e-9 {
		hi = lo + 1e-9
	}
	return Bins{LogLo: lo, LogHi: hi, N: n}
}

// Class returns the bin index for a cycle count, clamped to [0, N).
func (b Bins) Class(cycles float64) int {
	if cycles <= 0 {
		return 0
	}
	f := (math.Log(cycles) - b.LogLo) / (b.LogHi - b.LogLo)
	i := int(f * float64(b.N))
	if i < 0 {
		i = 0
	}
	if i >= b.N {
		i = b.N - 1
	}
	return i
}

// Value returns the representative cycle count of a bin (geometric
// midpoint).
func (b Bins) Value(class int) float64 {
	if class < 0 {
		class = 0
	}
	if class >= b.N {
		class = b.N - 1
	}
	w := (b.LogHi - b.LogLo) / float64(b.N)
	return math.Exp(b.LogLo + (float64(class)+0.5)*w)
}

// latencyBins is the latency model's output arity.
const latencyBins = 20

// Config controls predictor training.
type Config struct {
	// K is the top-K the quality models predict contributions to.
	K int
	// QualitySteps and LatencySteps are Adam gradient steps (the paper's
	// "training iterations": ~600 for quality, ~60 for latency — see
	// Figs. 7a/8a; the defaults give both models their convergence
	// budget).
	QualitySteps int
	LatencySteps int
	// Net selects the architecture (nn.FastConfig or nn.PaperConfig).
	Net func(inputDim, numClasses int, seed uint64) nn.Config
	// Seed drives weight init and batch sampling.
	Seed uint64
}

// DefaultConfig returns the harness configuration: fast architecture,
// paper-scale training budgets.
func DefaultConfig(k int) Config {
	return Config{
		K:            k,
		QualitySteps: 600,
		LatencySteps: 240,
		Net:          nn.FastConfig,
		Seed:         1,
	}
}

// ISNPredictor bundles one ISN's trained models.
type ISNPredictor struct {
	ISN     int
	K       int
	QKNet   *nn.Network
	QK2Net  *nn.Network
	LatNet  *nn.Network
	LatBins Bins

	// Inference scratch for predictBlock: one set for a lone query (the
	// live ISN's Predict, PredictAll) and one for blocks of blockRows.
	// On the block set a lone query's activations lie 16 KB apart per
	// layer, and query-major prediction ran slower than on a one-row
	// set in 16 of 20 paired runs.
	one, block scratch
	// infos is Predict's resolved-term row.
	infos []*index.TermInfo
}

// blockRows is how many queries an ISN's predictor runs through each
// network at a time. A block is big enough that one network's weights
// are read once for many queries instead of once per query, and small
// enough that its activations stay in cache between layers.
const blockRows = 32

// scratch is one set of inference scratch: a Predictor per network with
// room for a block of rows, and the block-relative query of each matched
// row.
type scratch struct {
	qk, qk2, lat *nn.Predictor
	matched      []int
}

func newScratch(qk, qk2, lat *nn.Network, rows int) scratch {
	return scratch{
		qk:      qk.NewPredictor(rows),
		qk2:     qk2.NewPredictor(rows),
		lat:     lat.NewPredictor(rows),
		matched: make([]int, rows),
	}
}

func newISNPredictor(isn, k int, qk, qk2, lat *nn.Network, bins Bins) *ISNPredictor {
	return &ISNPredictor{
		ISN: isn, K: k,
		QKNet: qk, QK2Net: qk2, LatNet: lat, LatBins: bins,
		one:   newScratch(qk, qk2, lat, 1),
		block: newScratch(qk, qk2, lat, blockRows),
	}
}

// Prediction is the tuple an ISN reports to the aggregator in step 3 of
// the coordination protocol: <Q^K, Q^{K/2}, predicted service cycles>.
// Alongside the argmax class predictions it carries the classifiers'
// zero-class probabilities and expected contributions, so the aggregator
// can make calibrated cutoff decisions (dropping a shard only when the
// model is confident its contribution is zero) instead of trusting a hard
// argmax — standard practice for softmax classifiers, and the lever that
// keeps P@10 near the paper's 0.947 under our predictors' accuracy.
type Prediction struct {
	Matched bool
	QK      int
	QK2     int
	Cycles  float64
	// PZeroK is the model's probability that this ISN contributes zero
	// documents to the top-K; PZeroK2 likewise for the top-K/2.
	PZeroK  float64
	PZeroK2 float64
	// ExpQK is the probability-weighted expected contribution, a smoother
	// ranking key than the argmax.
	ExpQK float64
}

// Predict runs both predictors for one query on this ISN's shard: the
// one-query case of the block path PredictTrace runs.
func (p *ISNPredictor) Predict(s *index.Shard, terms []string) Prediction {
	p.infos = features.Resolve(s, terms, p.infos[:0])
	var out [1]Prediction
	p.predictBlock([][]*index.TermInfo{p.infos}, out[:], 1)
	return out[0]
}

// predictBlock writes the prediction for query i of rows (at most
// blockRows of them) to out[i*stride]. A row is a query's resolved terms
// (features.Aggregate's input); both feature vectors of a query are
// written straight into the networks' input rows, then each network runs
// over the whole block of matched queries, one after the other. The
// latency class is the argmax of the logits: it skips the softmax.
func (p *ISNPredictor) predictBlock(rows [][]*index.TermInfo, out []Prediction, stride int) {
	sc := &p.block
	if len(rows) == 1 {
		sc = &p.one
	}
	qk, qk2, lat := sc.qk, sc.qk2, sc.lat
	m := 0
	for i, row := range rows {
		qv := (*[features.QualityDim]float64)(qk.Input(m))
		if !features.Aggregate(row, qv, (*[features.LatencyDim]float64)(lat.Input(m))) {
			// No query term exists on this shard: zero contribution, and
			// the only work is the dictionary miss.
			out[i*stride] = Prediction{Matched: false, PZeroK: 1, PZeroK2: 1}
			continue
		}
		copy(qk2.Input(m), qv[:])
		sc.matched[m] = i
		m++
	}
	if m == 0 {
		return
	}
	qk.Forward(m, true)
	qk2.Forward(m, true)
	lat.Forward(m, false)
	for r, i := range sc.matched[:m] {
		qkProbs, qk2Probs := qk.Probabilities(r), qk2.Probabilities(r)
		pr := Prediction{
			Matched: true,
			QK:      argmax(qkProbs),
			QK2:     argmax(qk2Probs),
			PZeroK:  qkProbs[0],
			PZeroK2: qk2Probs[0],
			Cycles:  p.LatBins.Value(argmax(lat.Logits(r))),
		}
		for c, pc := range qkProbs {
			pr.ExpQK += float64(c) * pc
		}
		out[i*stride] = pr
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

// Fleet is the set of per-ISN predictors for a whole cluster. Two
// concurrent calls on the same Fleet are not allowed (the per-ISN
// inference scratch and PredictTrace's interning storage are
// single-threaded), matching the aggregator, which issues one prediction
// round at a time per fleet.
type Fleet struct {
	K          int
	Predictors []*ISNPredictor

	trace traceScratch
}

// PredictAll runs every ISN's predictors for a query, one worker per ISN
// — in production each ISN predicts on its own node concurrently. Every
// ISN owns its predictor scratch and out is index-addressed, so the
// fan-out is race-free and deterministic.
func (f *Fleet) PredictAll(shards []*index.Shard, terms []string) []Prediction {
	out := make([]Prediction, len(shards))
	par.For(len(shards), func(isn int) {
		out[isn] = f.Predictors[isn].Predict(shards[isn], terms)
	})
	return out
}

// PredictTrace runs every ISN's predictors for each distinct query of a
// trace once and returns one row per query, each bit-equal to what
// PredictAll returns for it. Queries are distinct when their term
// multisets differ: "b a" is "a b", but "a a b" is not "a b", because
// the query-length feature counts repeats. This is the key the
// aggregator's prediction memo uses (DESIGN.md §19).
// The rows of queries that are not distinct alias one another; callers
// must not modify a row. Nothing is kept across calls but storage.
//
// The trace's terms are interned first, so each ISN looks each distinct
// term up in its dictionary once per call. The work is then ISN-major
// and, within an ISN, net-major: each worker takes one ISN and walks the
// distinct queries in blocks of blockRows, running each of the ISN's
// three networks over the whole block before the next, so a layer's
// weights are read once per block instead of once per query.
func (f *Fleet) PredictTrace(shards []*index.Shard, terms [][]string) [][]Prediction {
	t := &f.trace
	t.intern(terms)
	n := len(shards)
	if len(t.isn) < n {
		t.isn = make([]isnRows, n)
	}
	flat := make([]Prediction, len(t.first)*n)
	par.For(n, func(isn int) {
		p, r := f.Predictors[isn], &t.isn[isn]
		r.terms = features.Resolve(shards[isn], t.terms, r.terms[:0])
		for b := 0; b < len(t.first); b += blockRows {
			p.predictBlock(r.gather(t, t.first[b:min(b+blockRows, len(t.first))]), flat[b*n+isn:], n)
		}
	})
	rows := make([][]Prediction, len(terms))
	for q, d := range t.class {
		lo, hi := int(d)*n, int(d+1)*n
		rows[q] = flat[lo:hi:hi]
	}
	return rows
}

// traceScratch is what PredictTrace interns a trace into. It lives on the
// Fleet so that a warm replay allocates nothing per query.
type traceScratch struct {
	termID map[string]int32 // term → ID, dense from 0 in order of first use
	terms  []string         // ID → term
	// ids holds every query's term IDs, each query's sorted, back to
	// back: query q's are ids[ends[q]:ends[q+1]], its key.
	ids, ends []int32
	// slots is an open-addressed set of the keys seen: 1 + an index into
	// first, or 0 when empty. A Go map would need a string per distinct
	// key, an allocation for most queries of a replay.
	slots []int32
	first []int32 // each distinct query's first occurrence, in trace order
	class []int32 // query → the index of its distinct query in first
	isn   []isnRows
}

// isnRows is one ISN's resolved terms for a PredictTrace call.
type isnRows struct {
	terms []*index.TermInfo   // term ID → dictionary entry, nil on a miss
	infos []*index.TermInfo   // a block's rows, back to back
	rows  [][]*index.TermInfo // the block's rows, views into infos
}

// key returns query q's sorted term IDs.
func (t *traceScratch) key(q int32) []int32 { return t.ids[t.ends[q]:t.ends[q+1]] }

// intern numbers the terms of a trace and groups its queries by key.
func (t *traceScratch) intern(terms [][]string) {
	if t.termID == nil {
		t.termID = make(map[string]int32)
	}
	clear(t.termID)
	t.terms, t.ids, t.ends = t.terms[:0], t.ids[:0], append(t.ends[:0], 0)
	for _, q := range terms {
		start := len(t.ids)
		for _, term := range q {
			id, ok := t.termID[term]
			if !ok {
				id = int32(len(t.terms))
				t.termID[term] = id
				t.terms = append(t.terms, term)
			}
			t.ids = append(t.ids, id)
		}
		slices.Sort(t.ids[start:])
		t.ends = append(t.ends, int32(len(t.ids)))
	}

	// At most half full, so linear probing stays short.
	lg := bits.Len(uint(2 * len(terms)))
	t.slots = slices.Grow(t.slots[:0], 1<<lg)[:1<<lg]
	clear(t.slots)
	mask := uint64(len(t.slots) - 1)
	t.first, t.class = t.first[:0], t.class[:0]
	for q := range int32(len(terms)) {
		key := t.key(q)
		var h uint64
		for _, id := range key {
			h = (h + uint64(id) + 1) * 0x9e3779b97f4a7c15
		}
		for i := h >> (64 - lg); ; i = (i + 1) & mask {
			d := t.slots[i] - 1
			if d < 0 {
				d = int32(len(t.first))
				t.slots[i] = d + 1
				t.first = append(t.first, q)
			} else if !slices.Equal(key, t.key(t.first[d])) {
				continue
			}
			t.class = append(t.class, d)
			break
		}
	}
}

// gather resolves the queries qs (a block of distinct queries) through
// r.terms into rows predictBlock takes.
func (r *isnRows) gather(t *traceScratch, qs []int32) [][]*index.TermInfo {
	total := 0
	for _, q := range qs {
		total += len(t.key(q))
	}
	r.infos, r.rows = slices.Grow(r.infos[:0], total), r.rows[:0]
	for _, q := range qs {
		start := len(r.infos)
		for _, id := range t.key(q) {
			r.infos = append(r.infos, r.terms[id])
		}
		r.rows = append(r.rows, r.infos[start:])
	}
	return r.rows
}

// Train fits per-ISN models from a harvested dataset. Returns an error if
// the dataset is empty or misconfigured.
func Train(ds *Dataset, cfg Config) (*Fleet, error) {
	if len(ds.PerISN) == 0 {
		return nil, fmt.Errorf("predict: empty dataset")
	}
	if cfg.K <= 1 {
		return nil, fmt.Errorf("predict: K must be > 1, got %d", cfg.K)
	}
	if cfg.Net == nil {
		cfg.Net = nn.FastConfig
	}
	// Every ISN's three models train independently (the paper trains one
	// model set per ISN on its own index); parallelize across CPUs with
	// index-addressed results so the trained fleet is identical at any
	// worker count.
	fleet := &Fleet{K: cfg.K, Predictors: make([]*ISNPredictor, len(ds.PerISN))}
	errs := make([]error, len(ds.PerISN))
	par.For(len(ds.PerISN), func(isn int) {
		p, err := trainISN(isn, ds.PerISN[isn], cfg)
		if err != nil {
			errs[isn] = fmt.Errorf("predict: ISN %d: %w", isn, err)
			return
		}
		fleet.Predictors[isn] = p
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

func trainISN(isn int, samples []Sample, cfg Config) (*ISNPredictor, error) {
	matched := 0
	for _, sm := range samples {
		if sm.Matched {
			matched++
		}
	}
	// Two flat backing arrays instead of one small slice per sample; the
	// row views into them are what nn.Train sees.
	var (
		qflat = make([]float64, 0, matched*features.QualityDim)
		lflat = make([]float64, 0, matched*features.LatencyDim)
		qx    = make([][]float64, 0, matched)
		qkY   = make([]int, 0, matched)
		qk2Y  = make([]int, 0, matched)
		lx    = make([][]float64, 0, matched)
		latC  = make([]float64, 0, matched)
	)
	for _, sm := range samples {
		if !sm.Matched {
			continue // unmatched shards are known zeros; no model needed
		}
		qflat = append(qflat, sm.QualityVec[:]...)
		qx = append(qx, qflat[len(qflat)-features.QualityDim:len(qflat):len(qflat)])
		qkY = append(qkY, clampClass(sm.QK, cfg.K))
		qk2Y = append(qk2Y, clampClass(sm.QK2, cfg.K/2))
		lflat = append(lflat, sm.LatencyVec[:]...)
		lx = append(lx, lflat[len(lflat)-features.LatencyDim:len(lflat):len(lflat)])
		latC = append(latC, sm.Cycles)
	}
	if len(qx) < 10 {
		return nil, fmt.Errorf("only %d matched training samples", len(qx))
	}
	bins := FitBins(latC, latencyBins)
	latY := make([]int, len(latC))
	for i, c := range latC {
		latY[i] = bins.Class(c)
	}

	seed := cfg.Seed + uint64(isn)*1000
	qkNet := nn.New(cfg.Net(features.QualityDim, cfg.K+1, seed))
	qk2Net := nn.New(cfg.Net(features.QualityDim, cfg.K/2+1, seed+1))
	latNet := nn.New(cfg.Net(features.LatencyDim, bins.N, seed+2))

	qtc := nn.DefaultTrainConfig(cfg.QualitySteps)
	qtc.Seed = seed + 3
	if _, err := qkNet.Train(qx, qkY, qtc); err != nil {
		return nil, err
	}
	qtc.Seed = seed + 4
	if _, err := qk2Net.Train(qx, qk2Y, qtc); err != nil {
		return nil, err
	}
	ltc := nn.DefaultTrainConfig(cfg.LatencySteps)
	ltc.Seed = seed + 5
	if _, err := latNet.Train(lx, latY, ltc); err != nil {
		return nil, err
	}

	return newISNPredictor(isn, cfg.K, qkNet, qk2Net, latNet, bins), nil
}

func clampClass(v, max int) int {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// Accuracy summarizes a fleet's prediction quality on a (held-out)
// dataset, the numbers Figs. 7b/8b report per ISN.
type Accuracy struct {
	ISN            int
	QualityExact   float64 // exact-class accuracy of the quality-K model
	QualityWithin1 float64 // within one document of the true count
	// QualityZero is the binary zero/non-zero agreement — the decision
	// Algorithm 1's first stage actually consumes.
	QualityZero    float64
	LatencyWithin1 float64 // within one log bin — the paper's "accurate"
	LatencyExact   float64
}

// Evaluate measures per-ISN accuracy of fleet on ds (use a held-out
// split).
func Evaluate(fleet *Fleet, ds *Dataset) []Accuracy {
	out := make([]Accuracy, len(fleet.Predictors))
	par.For(len(fleet.Predictors), func(isn int) {
		p := fleet.Predictors[isn]
		var qx, lx [][]float64
		var qy, ly []int
		for _, sm := range ds.PerISN[isn] {
			if !sm.Matched {
				continue
			}
			qx = append(qx, append([]float64(nil), sm.QualityVec[:]...))
			qy = append(qy, clampClass(sm.QK, fleet.K))
			lx = append(lx, append([]float64(nil), sm.LatencyVec[:]...))
			ly = append(ly, p.LatBins.Class(sm.Cycles))
		}
		a := Accuracy{ISN: isn}
		if len(qx) > 0 {
			a.QualityExact = p.QKNet.Accuracy(qx, qy)
			a.QualityWithin1 = p.QKNet.AccuracyWithin(qx, qy)
			a.LatencyExact = p.LatNet.Accuracy(lx, ly)
			a.LatencyWithin1 = p.LatNet.AccuracyWithin(lx, ly)
			zeroOK := 0
			for i := range qx {
				got := p.one.qk.Classify(qx[i])
				if (got == 0) == (qy[i] == 0) {
					zeroOK++
				}
			}
			a.QualityZero = float64(zeroOK) / float64(len(qx))
		}
		out[isn] = a
	})
	return out
}
