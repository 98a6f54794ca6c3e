package baselines

import (
	"fmt"
	"math"
	"sort"

	"cottage/internal/engine"
	"cottage/internal/nn"
	"cottage/internal/predict"
	"cottage/internal/trace"
)

// QR is the learned shard-cutoff baseline of Mohammad et al. (SIGIR'18,
// reference [19] of the paper): shards are ranked by a resource-selection
// score (here Taily's Gamma estimate) and a trained model predicts *how
// many* of the top-ranked shards to search for this query, instead of
// using a fixed threshold. Like the other selective-search baselines it
// is latency-blind: it never budgets, boosts, or cuts stragglers.
type QR struct {
	pred *nn.Predictor
}

// qrFeatureDim: the top-8 ranked estimates, their total mass, the number
// of non-zero estimates, and the query length.
const qrFeatureDim = 11

// qrFeatures builds the cutoff model's input from a ranked estimate list.
func qrFeatures(sorted []float64, queryLen int) []float64 {
	f := make([]float64, qrFeatureDim)
	total, nonzero := 0.0, 0
	for i, e := range sorted {
		if i < 8 {
			f[i] = e
		}
		total += e
		if e > 1e-9 {
			nonzero++
		}
	}
	f[8] = total
	f[9] = float64(nonzero)
	f[10] = float64(queryLen)
	return f
}

// QRConfig controls training.
type QRConfig struct {
	// CoverFrac is the share of the true top-K contribution the labelled
	// cutoff must cover (the QR paper's precision-oriented operating
	// point searches until quality is safe; 0.95 by default).
	CoverFrac float64
	Steps     int
	Seed      uint64
}

// DefaultQRConfig mirrors the experiments.
func DefaultQRConfig() QRConfig { return QRConfig{CoverFrac: 0.95, Steps: 400, Seed: 7} }

// NewQR trains the cutoff model. ds must be the harvest of queries on the
// same engine (engine.TrainFleet returns it); the label for each query is
// the smallest ranked-prefix of shards covering CoverFrac of its true
// top-K contributions.
func NewQR(e *engine.Engine, ds *predict.Dataset, queries []trace.Query, cfg QRConfig) (*QR, error) {
	if len(queries) > len(ds.PerISN[0]) {
		return nil, fmt.Errorf("baselines: QR has %d queries but dataset holds %d", len(queries), len(ds.PerISN[0]))
	}
	maxCut := len(e.Shards)
	var xs [][]float64
	var ys []int
	for qi, q := range queries {
		est := e.Gamma.Estimate(q.Terms, e.K)
		order := rankByEstimate(est)
		sorted := make([]float64, len(order))
		totalTruth := 0
		for i, si := range order {
			sorted[i] = est[si]
			totalTruth += ds.PerISN[si][qi].QK
		}
		if totalTruth == 0 {
			continue // nothing to find; no training signal
		}
		need := int(math.Ceil(cfg.CoverFrac * float64(totalTruth)))
		covered, cut := 0, maxCut
		for i, si := range order {
			covered += ds.PerISN[si][qi].QK
			if covered >= need {
				cut = i + 1
				break
			}
		}
		xs = append(xs, qrFeatures(sorted, len(q.Terms)))
		ys = append(ys, cut-1) // classes 0..maxCut-1 encode cutoffs 1..maxCut
	}
	if len(xs) < 20 {
		return nil, fmt.Errorf("baselines: only %d usable QR training queries", len(xs))
	}
	net := nn.New(nn.FastConfig(qrFeatureDim, maxCut, cfg.Seed))
	tc := nn.DefaultTrainConfig(cfg.Steps)
	tc.Seed = cfg.Seed + 1
	if _, err := net.Train(xs, ys, tc); err != nil {
		return nil, err
	}
	return &QR{pred: net.NewPredictor(1)}, nil
}

// rankByEstimate returns shard indices in descending estimate order
// (ties toward lower shard IDs, deterministically).
func rankByEstimate(est []float64) []int {
	order := make([]int, len(est))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return est[order[a]] > est[order[b]] })
	return order
}

// Name implements engine.Policy.
func (*QR) Name() string { return "qr" }

// Decide implements engine.Policy: rank by Gamma estimate, cut at the
// model's predicted depth.
func (q *QR) Decide(e *engine.Engine, qr trace.Query, _ float64) engine.Decision {
	est := e.Gamma.Estimate(qr.Terms, e.K)
	order := rankByEstimate(est)
	sorted := make([]float64, len(order))
	for i, si := range order {
		sorted[i] = est[si]
	}
	cut := q.pred.Classify(qrFeatures(sorted, len(qr.Terms))) + 1
	if cut > len(order) {
		cut = len(order)
	}
	participate := make([]bool, len(e.Shards))
	for i := 0; i < cut; i++ {
		if sorted[i] <= 0 && i > 0 {
			break // never search shards with zero estimate beyond the first
		}
		participate[order[i]] = true
	}
	return engine.Decision{
		Participate: participate,
		BudgetMS:    math.Inf(1),
		CoordMS:     0.15, // estimator round + one aggregator-side inference
	}
}
