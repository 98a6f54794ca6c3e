package harness

import (
	"fmt"
	"io"
	"math"

	"cottage/internal/engine"
	"cottage/internal/trace"
)

// FixedBudget broadcasts every query to every ISN under one fixed time
// budget — the simplest budgeted policy, isolating the deadline's effect
// from selection and DVFS so the anytime sweep's quality-vs-deadline
// curve measures exactly one thing: what happens to the hits of ISNs
// that miss the budget (dropped outright vs truncated anytime answers).
type FixedBudget struct{ BudgetMS float64 }

// Name implements engine.Policy.
func (p FixedBudget) Name() string {
	if math.IsInf(p.BudgetMS, 1) {
		return "fixed-inf"
	}
	return fmt.Sprintf("fixed-%gms", p.BudgetMS)
}

// Decide implements engine.Policy.
func (p FixedBudget) Decide(e *engine.Engine, _ trace.Query, _ float64) engine.Decision {
	part := make([]bool, len(e.Shards))
	for i := range part {
		part[i] = true
	}
	return engine.Decision{Participate: part, BudgetMS: p.BudgetMS}
}

// AnytimeBudgets is the deadline ladder the anytime sweep replays, in
// ms. The quick-scale exhaustive latency distribution (Fig. 2a) puts
// most shard services under 10 ms, so the low rungs force real budget
// misses and the top rung (+Inf) recovers exhaustive behaviour. The
// ladder starts at 2 ms: below the cost model's fixed per-query
// overhead (~1.1 ms at the default frequency) no traversal of any kind
// fits, so a 1 ms rung degenerates to zero quality for both protocols.
func AnytimeBudgets() []float64 {
	return []float64{2, 4, 8, 16, 32, math.Inf(1)}
}

// AnytimeSweep replays the evaluation trace under a ladder of fixed
// budgets, twice per rung: once with the classic drop-ISN protocol
// (step 7: stragglers' responses are discarded) and once with anytime
// ISNs (stragglers answer with an exact truncated top-K and a score
// bound). The quality-vs-deadline curves quantify the paper's quality
// cliff — and how much of it the anytime traversal buys back at every
// sub-budget deadline, at identical latency and power.
func AnytimeSweep(s *Setup, w io.Writer) error {
	defer func() { s.Engine.Anytime = false }()
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s %9s %9s\n",
		"budget", "drop@10", "any@10", "delta", "dropfrac", "truncfrac", "drop p95", "any p95")
	for _, b := range AnytimeBudgets() {
		pol := FixedBudget{BudgetMS: b}
		s.Engine.Anytime = false
		drop := engine.Summarize(s.Engine.Run(pol, s.WikiEval))
		s.Engine.Anytime = true
		any := engine.Summarize(s.Engine.Run(pol, s.WikiEval))
		label := "inf"
		if !math.IsInf(b, 1) {
			label = fmt.Sprintf("%gms", b)
		}
		fmt.Fprintf(w, "%-10s %9.3f %9.3f %9.3f %9.3f %9.3f %9.2f %9.2f\n",
			label, drop.MeanPAtK, any.MeanPAtK, any.MeanPAtK-drop.MeanPAtK,
			drop.DroppedFrac, any.TruncatedFrac, drop.P95Latency, any.P95Latency)
	}
	return nil
}
