package core

import "cottage/internal/cluster"

// DegradedMode selects how Algorithm 1 behaves when some ISNs never
// delivered a prediction (crashed nodes, dropped prediction round,
// retries exhausted). The paper's Algorithm 1 assumes a full prediction
// vector; a production aggregator cannot.
type DegradedMode int

const (
	// DegradedExclude optimizes over the responders alone. The missing
	// ISNs' quality contribution is simply lost — the cheapest policy,
	// and the right one when failures are rare and shards are replicated
	// upstream. The quality hit shows up in P@K, not in latency.
	DegradedExclude DegradedMode = iota
	// DegradedConservative falls back to a conservative budget: the
	// maximum boosted latency across the responding candidates. With
	// incomplete information the optimizer no longer knows which slow
	// responder the missing predictions would have outvoted, so it keeps
	// every surviving contributor reachable rather than racing an
	// unknowable field. Budgets are monotonically >= what full
	// information over the same responders would pick, trading tail
	// latency for quality retention.
	DegradedConservative
)

// String implements fmt.Stringer.
func (m DegradedMode) String() string {
	if m == DegradedConservative {
		return "conservative"
	}
	return "exclude"
}

// DetermineBudgetDegraded is Algorithm 1 under partial information:
// reports holds the predictions that arrived, missing counts the ISNs
// whose predictions never did. With no missing ISNs (or DegradedExclude)
// it is exactly DetermineBudget; with DegradedConservative and missing
// ISNs, the budget is relaxed to the slowest responding candidate's
// boosted latency — StrictTopK's budget, since every stage-1 survivor is
// a top-K contributor — so no surviving contributor is cut for speed.
func DetermineBudgetDegraded(reports []ISNReport, missing int, ladder cluster.Ladder,
	opts BudgetOptions, mode DegradedMode) BudgetResult {
	return DetermineBudget(reports, ladder, mode.options(opts, missing))
}

// options are the Algorithm 1 options mode runs with when missing ISNs
// sent no prediction.
func (m DegradedMode) options(opts BudgetOptions, missing int) BudgetOptions {
	if missing > 0 && m == DegradedConservative {
		opts.StrictTopK = true
	}
	return opts
}
