// Package baselines implements the ISN-selection policies the paper
// compares Cottage against (Section V): exhaustive search, an epoch-based
// aggregation policy, Rank-S (central sample index), and Taily
// (Gamma-distribution shard selection). Each implements engine.Policy.
package baselines

import (
	"math"

	"cottage/internal/engine"
	"cottage/internal/stats"
	"cottage/internal/trace"
)

// allOf returns a participation vector selecting every shard, in e's
// decision storage (engine.DecisionBuffers).
func allOf(e *engine.Engine) []bool {
	p := e.DecisionBuffers().Participate
	for i := range p {
		p[i] = true
	}
	return p
}

// Exhaustive broadcasts every query to every ISN and waits for the
// slowest — the paper's baseline with P@10 = 1 by construction.
type Exhaustive struct{}

// Name implements engine.Policy.
func (Exhaustive) Name() string { return "exhaustive" }

// Decide implements engine.Policy.
func (Exhaustive) Decide(e *engine.Engine, _ trace.Query, _ float64) engine.Decision {
	return engine.Decision{
		Participate: allOf(e),
		BudgetMS:    math.Inf(1),
	}
}

// Aggregation is the epoch-based aggregation policy (Yun et al., SIGIR'15
// family, as characterized in the paper's Fig. 3b): all ISNs participate,
// but the aggregator stops waiting after a fixed time budget recomputed
// each epoch from recent latency history. Quality contribution is not
// considered, so high-quality stragglers are cut — the failure mode
// Cottage fixes.
type Aggregation struct {
	// EpochQueries is how many queries share one budget before it is
	// recomputed.
	EpochQueries int
	// Pct is the percentile of the previous epoch's client latencies used
	// as the next budget.
	Pct float64

	window []float64
	budget float64
}

// NewAggregation returns the configuration used in the experiments: the
// budget is the previous epoch's 60th-percentile latency, recomputed
// every 100 queries. The first epoch runs unbudgeted (it has no history).
func NewAggregation() *Aggregation {
	return &Aggregation{EpochQueries: 100, Pct: 60, budget: math.Inf(1)}
}

// Name implements engine.Policy.
func (*Aggregation) Name() string { return "aggregation" }

// Decide implements engine.Policy.
func (a *Aggregation) Decide(e *engine.Engine, _ trace.Query, _ float64) engine.Decision {
	return engine.Decision{
		Participate: allOf(e),
		BudgetMS:    a.budget,
	}
}

// Observe collects latencies and rolls the epoch budget. The engine
// feeds every query's client latency to a policy that has this method.
func (a *Aggregation) Observe(latencyMS float64) {
	a.window = append(a.window, latencyMS)
	if len(a.window) >= a.EpochQueries {
		a.budget = stats.Percentile(a.window, a.Pct)
		a.window = a.window[:0]
	}
}
