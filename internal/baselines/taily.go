package baselines

import (
	"math"

	"cottage/internal/engine"
	"cottage/internal/trace"
)

// Taily is the distributed Gamma-distribution shard selector (Aly et al.,
// SIGIR'13): each shard's expected contribution to the global top-K is
// estimated from fitted score distributions (predict.GammaEstimator), and
// shards whose estimate clears a threshold are searched. Like the paper's
// characterization (Section V-A), it "only cuts off the ISNs without any
// contribution to the top-10 results, and ignores the latency dimension" —
// so one slow low-quality ISN can still dominate the tail.
type Taily struct {
	// Tau is the expected-contribution threshold below which a shard is
	// cut (documents in the global top-K).
	Tau float64
}

// NewTaily returns the configuration used in the experiments: Taily's
// published tuning is recall-oriented (the paper measures it keeping ~13
// of 16 ISNs), so the threshold is permissive; its quality losses come
// from the Gamma model misranking shards, not from cutting aggressively.
func NewTaily() *Taily { return &Taily{Tau: 0.05} }

// Name implements engine.Policy.
func (*Taily) Name() string { return "taily" }

// Decide implements engine.Policy.
func (t *Taily) Decide(e *engine.Engine, q trace.Query, _ float64) engine.Decision {
	est := e.Gamma.Estimate(q.Terms, e.K)
	participate := make([]bool, len(e.Shards))
	selected := 0
	best, bestShard := -1.0, 0
	for s, c := range est {
		if c > best {
			best, bestShard = c, s
		}
		if c >= t.Tau {
			participate[s] = true
			selected++
		}
	}
	// Taily computes its estimates at the ISNs from local statistics, so
	// a query with any match always yields at least one candidate.
	if selected == 0 && best > 0 {
		participate[bestShard] = true
	}
	return engine.Decision{
		Participate: participate,
		BudgetMS:    math.Inf(1),
		CoordMS:     0.1, // one estimator round at the ISNs
	}
}
