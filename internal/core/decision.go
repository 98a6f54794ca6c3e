package core

import (
	"cottage/internal/cluster"
	"cottage/internal/obs"
	"cottage/internal/predict"
)

// QueueBacklogMS is the live path's Eq. 2 queue term. The aggregator
// cannot see an ISN's worker schedule (the twin's cluster.QueueDelayMS
// computes the term exactly), but every reply carries the ISN's
// admission-queue depth and EWMA service time: depth requests ahead, each
// costing ~avgServiceMS to drain. Non-positive inputs (empty queue, no
// service history yet) yield zero.
func QueueBacklogMS(depth int, avgServiceMS float64) float64 {
	if depth <= 0 || avgServiceMS <= 0 {
		return 0
	}
	return float64(depth) * avgServiceMS
}

// Params are the settings of Cottage's per-query decision that the live
// aggregator (rpc.Aggregator) and the simulated policies share, so both
// turn the same predictions into the same reports and the same budget.
type Params struct {
	// DropZeroProb cuts an ISN when its quality model assigns at least
	// this probability to the zero class (calibrated cutoff; see
	// predict.Prediction).
	DropZeroProb float64
	// K2ZeroProb is the same threshold for the "contributes to top-K/2"
	// test in stage 2.
	K2ZeroProb float64
	// Degraded is Algorithm 1's policy for ISNs whose predictions never
	// arrived (see DegradedMode).
	Degraded DegradedMode
}

// quality is the Q half of an ISNReport: predicted contributions to the
// global top-K and top-K/2, whether each is non-zero, and the expected
// Q^K stage 1 ranks by.
type quality struct {
	qk, qk2     int
	hasK, hasK2 bool
	expQK       float64
}

// newReport is the one place an ISN's prediction becomes Algorithm 1's
// input (Fig. 5 steps 2–3), on both serving paths; it writes every field
// of r, in place. cycles is the raw latency prediction; margin inflates
// it (Cottage.LatencyMargin), and Eq. 2 adds queueMS, the work already
// queued at the serving replica, to the service time at the default and
// the maximum frequency.
func newReport(r *ISNReport, isn int, q quality, cycles, margin, queueMS float64, replica int, ladder cluster.Ladder) {
	pred := cycles * (1 + margin)
	r.ISN, r.Replica = isn, replica
	r.QK, r.QK2, r.HasK, r.HasK2, r.ExpQK = q.qk, q.qk2, q.hasK, q.hasK2, q.expQK
	r.LCurrent = queueMS + cluster.ServiceMS(pred, ladder.Default())
	r.LBoosted = queueMS + cluster.ServiceMS(pred, ladder.Max())
	r.PredCycles, r.RawCycles = pred, cycles
}

// Report writes ISN isn's report from its prediction into r,
// thresholding the zero-class probabilities at the calibrated cutoffs.
// The live aggregator passes margin 0 and the backlog its ISN last
// reported; the twin passes its policy's margin and the simulated queue.
func (p Params) Report(r *ISNReport, isn int, pred predict.Prediction, margin, queueMS float64, replica int, ladder cluster.Ladder) {
	q := quality{qk: pred.QK, qk2: pred.QK2, expQK: pred.ExpQK,
		hasK: pred.PZeroK < p.DropZeroProb, hasK2: pred.PZeroK2 < p.K2ZeroProb}
	newReport(r, isn, q, pred.Cycles, margin, queueMS, replica, ladder)
}

// Budget is Fig. 5 step 4 on both serving paths: Algorithm 1 over the
// reports that arrived, degraded by p.Degraded when the shards in missing
// sent none, and — when record is set — the decision record traces carry
// (nil otherwise).
func (p Params) Budget(reports []ISNReport, missing []int, ladder cluster.Ladder,
	opts BudgetOptions, record bool) (BudgetResult, *obs.DecisionRecord) {
	return p.budget(reports, missing, ladder, opts, record, &budgetBuf{})
}

// budget is Budget with buf as Algorithm 1's storage.
func (p Params) budget(reports []ISNReport, missing []int, ladder cluster.Ladder,
	opts BudgetOptions, record bool, buf *budgetBuf) (BudgetResult, *obs.DecisionRecord) {

	res := determineBudget(reports, ladder, p.Degraded.options(opts, len(missing)), buf)
	if !record {
		return res, nil
	}
	return res, NewDecisionRecord(res, reports, missing, p.Degraded, ladder)
}
