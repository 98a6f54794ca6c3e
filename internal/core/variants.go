package core

import (
	"math"

	"cottage/internal/engine"
	"cottage/internal/trace"
)

// CottageISN is the uncoordinated ablation (Section V-D): every ISN makes
// its own cutoff decision from its local quality prediction, with no
// aggregator optimizer, no global time budget, and no frequency boosting.
// Low-quality ISNs still drop themselves (so resource usage matches
// Cottage), but the aggregator must wait for the slowest participant —
// which is why Fig. 15(a) shows it ~1.9x slower than coordinated Cottage.
type CottageISN struct {
	// inner supplies Cottage's calibrated cutoff (Params.DropZeroProb).
	inner *Cottage
}

// NewCottageISN returns the ablation with the same calibrated cutoff as
// Cottage.
func NewCottageISN() *CottageISN { return &CottageISN{inner: NewCottage()} }

// Name implements engine.Policy.
func (*CottageISN) Name() string { return "cottage-isn" }

// Decide implements engine.Policy.
func (v *CottageISN) Decide(e *engine.Engine, q trace.Query, _ float64) engine.Decision {
	if e.Fleet == nil {
		panic("core: CottageISN requires a trained fleet")
	}
	preds := e.Predictions(q)
	d := engine.Decision{
		Participate: make([]bool, len(e.Shards)),
		BudgetMS:    math.Inf(1),
		// Local decisions: inference cost only, no coordination trips.
		CoordMS:        e.Cluster.InferMS,
		UsedPredictors: true,
	}
	any := false
	best, bestISN := -1.0, -1
	for isn, p := range preds {
		if !p.Matched {
			continue
		}
		if p.ExpQK > best {
			best, bestISN = p.ExpQK, isn
		}
		if p.PZeroK < v.inner.DropZeroProb {
			d.Participate[isn] = true
			any = true
		}
	}
	if !any && bestISN >= 0 {
		d.Participate[bestISN] = true
	}
	return d
}

// CottageNoML is the Cottage-withoutML ablation (Section V-D): the full
// coordinated Algorithm 1, but with quality contributions estimated by
// Taily's Gamma model instead of the neural network. Latency prediction
// stays neural (the variant isolates the quality model). Fig. 15 shows
// the distribution-based estimates keep ~13 ISNs active and lose ~10% of
// P@10 versus the learned predictor.
type CottageNoML struct {
	// Tau is the Gamma-estimate threshold standing in for the "zero
	// contribution" test.
	Tau float64
	// inner is the Cottage whose margin, Algorithm 1 switches and
	// frequency boosting the variant runs on its Gamma reports.
	inner *Cottage
}

// NewCottageNoML returns the paper's configuration.
func NewCottageNoML() *CottageNoML {
	return &CottageNoML{Tau: 0.05, inner: NewCottage()}
}

// Name implements engine.Policy.
func (*CottageNoML) Name() string { return "cottage-noml" }

// Decide implements engine.Policy.
func (v *CottageNoML) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	if e.Fleet == nil {
		panic("core: CottageNoML requires a trained fleet for latency prediction")
	}
	estK := e.Gamma.Estimate(q.Terms, e.K)
	estK2 := e.Gamma.Estimate(q.Terms, e.K/2)
	preds := e.Predictions(q)

	reports := make([]ISNReport, 0, len(preds))
	for isn, p := range preds {
		if !p.Matched {
			continue
		}
		est := quality{qk: int(math.Round(estK[isn])), qk2: int(math.Round(estK2[isn])), expQK: estK[isn],
			hasK: estK[isn] >= v.Tau, hasK2: estK2[isn] >= v.Tau}
		row, queueMS := servingQueue(e, isn, nowMS)
		reports = append(reports, newReport(isn, est, p.Cycles, v.inner.LatencyMargin, queueMS, row, e.Cluster.Ladder))
	}
	db, buf := decisionBufs(e)
	return v.inner.decideFromReports(e, reports, db, buf)
}
