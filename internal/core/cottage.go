// Package core implements Cottage itself: the coordinated per-query time
// budget assignment of Section III. Each ISN reports
// <Q^K, Q^{K/2}, L^current, L^boosted> (quality and equivalent-latency
// predictions); the aggregator runs Algorithm 1 to pick the minimal time
// budget that keeps every ISN with top-K/2 quality contribution
// reachable, cuts the rest, and boosts the CPU frequency of slow
// high-quality ISNs so they meet the budget.
//
// The package also provides the paper's two ablation variants
// (Section V-D): Cottage-ISN, which drops the aggregator coordination and
// lets each ISN decide locally, and Cottage-withoutML, which swaps the
// neural quality predictor for Taily's Gamma estimator.
package core

import (
	"math"
	"slices"

	"cottage/internal/cluster"
	"cottage/internal/engine"
	"cottage/internal/trace"
)

// ISNReport is one ISN's input to the optimizer: the paper's
// <Q^K, Q^{K/2}, L^current, L^boosted> tuple (Algorithm 1, line 1).
type ISNReport struct {
	ISN int
	// QK and QK2 are predicted contributions to the global top-K and
	// top-K/2; HasK/HasK2 are the calibrated non-zero decisions (the
	// classifier's zero-probability thresholded, see predict.Prediction).
	QK, QK2     int
	HasK, HasK2 bool
	ExpQK       float64
	LCurrent    float64 // equivalent latency at the current frequency
	LBoosted    float64 // equivalent latency at the maximum frequency
	PredCycles  float64
	// RawCycles is the predictor's cycle estimate before the latency
	// margin inflates it into PredCycles — the honest prediction, kept so
	// accuracy tracking measures the model rather than the safety margin.
	RawCycles float64
	// Replica is which copy of the shard answered the prediction round
	// (replica row index, 0 on unreplicated fleets). Replicas of a shard
	// are interchangeable for Q^K/Q^{K/2}, so Algorithm 1 ignores it; it
	// flows into the DecisionRecord for the audit trail.
	Replica int
}

// BudgetResult is the optimizer's output.
type BudgetResult struct {
	// BudgetMS is the chosen time budget T.
	BudgetMS float64
	// Selected lists the ISNs that participate, with their assigned
	// frequencies.
	Selected []Assignment
	// Cut lists ISNs excluded (zero quality, or boosted latency above T).
	Cut []int
	// BudgetISN is the ISN whose boosted latency set the budget
	// (Algorithm 1's "ISN j"), -1 when no candidate survived stage 1.
	BudgetISN int
}

// Assignment is one selected ISN and its DVFS frequency.
type Assignment struct {
	ISN     int
	Freq    float64
	Boosted bool
	// Downclocked marks ISNs slowed below the default frequency because
	// the budget left slack.
	Downclocked bool
}

// BudgetOptions tune Algorithm 1's assignment stage.
type BudgetOptions struct {
	// StrictTopK disables the K/2 relaxation: the budget is the slowest
	// top-K contributor's boosted latency.
	StrictTopK bool
	// Downclock lets ISNs whose predicted latency is far below the budget
	// drop below the default frequency, reclaiming the slack as energy —
	// the use the paper's Section I motivates for a per-query time budget
	// (feeding DVFS schemes like Pegasus/TimeTrader/Rubik).
	Downclock bool
}

// DetermineBudget is Algorithm 1. reports must contain one entry per
// candidate ISN (callers typically pre-filter unmatched shards); ladder
// supplies the frequency levels. Each report's equivalent latencies embed
// its queue backlog, which frequency selection recovers so that the
// equivalent latency at frequency f is queue + service(f).
//
// Stage 1 (lines 3–11) cuts ISNs with zero predicted top-K contribution.
// Stage 2 (lines 12–21) re-sorts survivors by descending boosted latency
// and walks down until the first ISN with top-K/2 contribution; that
// ISN's boosted latency is the budget. (The paper's listing lacks the
// early exit its own walkthrough of Fig. 9 performs — "we select ISN j's
// boosted latency as the final time budget" at the *first* hit — so we
// break there; continuing would pick an unmeetably small budget.)
// Survivors whose boosted latency exceeds the budget are cut; survivors
// whose current-frequency latency exceeds it are boosted to the smallest
// ladder frequency that meets it.
func DetermineBudget(reports []ISNReport, ladder cluster.Ladder, opts BudgetOptions) BudgetResult {
	return determineBudget(reports, ladder, opts, &budgetBuf{})
}

// budgetBuf is storage Algorithm 1 fills instead of allocating: the
// stage-1 survivors, and the Cut and Selected lists the BudgetResult
// returns in it. A zero budgetBuf gives fresh slices each call. The twin
// keeps one per engine, with its reports, in the engine's
// DecisionBuffers (see decisionBufs), so a result there is valid until
// the engine's next Decide.
type budgetBuf struct {
	reports, cands []ISNReport
	cut            []int
	selected       []Assignment
}

// decisionBufs returns e's decision storage and core's buffers kept in it.
func decisionBufs(e *engine.Engine) (*engine.DecisionBuffers, *budgetBuf) {
	db := e.DecisionBuffers()
	buf, ok := db.Policy.(*budgetBuf)
	if !ok {
		buf = new(budgetBuf)
		db.Policy = buf
	}
	return db, buf
}

func determineBudget(reports []ISNReport, ladder cluster.Ladder, opts BudgetOptions, buf *budgetBuf) BudgetResult {
	if cap(buf.cands) < len(reports) {
		buf.cands = make([]ISNReport, 0, len(reports))
		buf.cut = make([]int, 0, len(reports))
		buf.selected = make([]Assignment, 0, len(reports))
	}
	// Stage 1: rank candidates by expected quality and cut ISNs with zero
	// predicted top-K contribution.
	res := BudgetResult{Cut: buf.cut[:0], Selected: buf.selected[:0]}
	cands := buf.cands[:0]
	for _, r := range reports {
		if !r.HasK {
			res.Cut = append(res.Cut, r.ISN)
			continue
		}
		cands = append(cands, r)
	}
	// These are the orders sort.Slice and sort.SliceStable gave with
	// less = "a's key > b's": each comparator is negative exactly when
	// that less is true, and the slices sorts come from the same
	// templates, so every input permutes the same way, ties and NaN
	// included (TestDetermineBudgetMatchesReflectSorts). Which tied
	// candidate comes first decides the budget ISN.
	slices.SortFunc(cands, func(a, b ISNReport) int { return descending(a.ExpQK, b.ExpQK) })
	slices.SortStableFunc(cands, func(a, b ISNReport) int { return descending(a.LBoosted, b.LBoosted) })
	if len(cands) == 0 {
		res.BudgetMS = math.Inf(1)
		res.BudgetISN = -1
		return res
	}
	// Stage 2: descending boosted latency; budget = first K/2 contributor.
	T := cands[0].LBoosted
	res.BudgetISN = cands[0].ISN
	if !opts.StrictTopK {
		for _, c := range cands {
			if c.HasK2 {
				T = c.LBoosted
				res.BudgetISN = c.ISN
				break
			}
		}
	}
	assignFrequencies(&res, cands, T, ladder, opts)
	return res
}

// descending orders a before b when a > b. It is not cmp.Compare with
// the operands swapped, which would also order NaN; here NaN ties with
// everything, as it did under the old less.
func descending(a, b float64) int {
	if a > b {
		return -1
	}
	if b > a {
		return 1
	}
	return 0
}

// assignFrequencies is Algorithm 1's assignment stage for a chosen
// budget T: cut candidates that cannot meet T even boosted, and give the
// rest the smallest ladder frequency that does.
func assignFrequencies(res *BudgetResult, cands []ISNReport, T float64, ladder cluster.Ladder, opts BudgetOptions) {
	res.BudgetMS = T
	const eps = 1e-9
	for _, c := range cands {
		if c.LBoosted > T+eps {
			// Cannot meet the budget even at max frequency: sacrificed
			// bottom-K/2 quality for response time (Fig. 9's ISN-7).
			res.Cut = append(res.Cut, c.ISN)
			continue
		}
		// Pick the smallest ladder frequency whose equivalent latency
		// meets the budget. The current and boosted latencies share the
		// queue term, so service scales as 1/f between them. Without
		// Downclock the frequency never drops below the default.
		queue := c.LCurrent - cluster.ServiceMS(c.PredCycles, ladder.Default())
		if queue < 0 {
			queue = 0
		}
		need := ladder.Max()
		for _, f := range ladder.Levels {
			if !opts.Downclock && f < ladder.Default() {
				continue
			}
			if queue+cluster.ServiceMS(c.PredCycles, f) <= T+eps {
				need = f
				break
			}
		}
		res.Selected = append(res.Selected, Assignment{
			ISN:         c.ISN,
			Freq:        need,
			Boosted:     need > ladder.Default(),
			Downclocked: need < ladder.Default(),
		})
	}
	slices.SortFunc(res.Selected, func(a, b Assignment) int { return a.ISN - b.ISN })
	slices.Sort(res.Cut)
}

// Cottage is the full coordinated policy (Fig. 5's seven steps).
type Cottage struct {
	// Params are the cutoffs and degraded-mode policy (for dead nodes in
	// the simulated cluster), shared with the live aggregator.
	Params
	// Boost enables frequency boosting (ablation switch; the paper's
	// Cottage always boosts).
	Boost bool
	// StrictTopK disables the K/2 relaxation (ablation: never sacrifice
	// bottom-half quality; the budget is the slowest contributor's
	// boosted latency).
	StrictTopK bool
	// Downclock reclaims budget slack as energy by letting fast ISNs run
	// below the default frequency (see BudgetOptions.Downclock). The
	// paper's Cottage saves power chiefly by activating fewer ISNs; at
	// our predictors' accuracy the same P@10 needs a more conservative
	// cutoff, and slack reclamation recovers the Fig. 14 power ordering.
	Downclock bool
	// LatencyMargin inflates predicted service times by this fraction
	// before budget/boost decisions, absorbing the latency model's ~one
	// log-bin quantization error so contributors rarely miss their
	// deadline (a straggler that misses by 1 ms loses its whole
	// contribution, so under-prediction is far costlier than the small
	// budget slack over-prediction adds).
	LatencyMargin float64
}

// NewCottage returns the paper's configuration.
func NewCottage() *Cottage {
	return &Cottage{Params: Params{DropZeroProb: 0.8, K2ZeroProb: 0.95}, Boost: true, Downclock: true, LatencyMargin: 0.5}
}

// Name implements engine.Policy.
func (c *Cottage) Name() string { return "cottage" }

// coordOverheadMS is the critical-path cost of coordination: the
// prediction round trip, the optimizer, and the budget broadcast
// (two extra fabric round trips plus both model inferences).
func coordOverheadMS(e *engine.Engine) float64 {
	return 4*e.Cluster.Net.AggToISNMS + e.Cluster.InferMS
}

// Reports gathers the per-ISN prediction tuples for a query (steps 2–3).
func (c *Cottage) Reports(e *engine.Engine, q trace.Query, nowMS float64) []ISNReport {
	return c.appendReports(make([]ISNReport, 0, len(e.Shards)), e, q, nowMS)
}

// appendReports is Reports appending to reports.
func (c *Cottage) appendReports(reports []ISNReport, e *engine.Engine, q trace.Query, nowMS float64) []ISNReport {
	for isn, p := range e.Predictions(q) {
		// A dead shard — every replica down — never answers the prediction
		// round: its report is missing, and degraded-mode Algorithm 1
		// (Cottage.Degraded) decides how to optimize without it. While any
		// replica lives, the shard's predictions survive node loss.
		if e.Cluster.ShardFailed(isn) || !p.Matched {
			continue
		}
		row, queueMS := servingQueue(e, isn, nowMS)
		reports = append(reports, c.Report(isn, p, c.LatencyMargin, queueMS, row, e.Cluster.Ladder))
	}
	return reports
}

// servingQueue picks the shard's serving replica for the upcoming leg and
// returns its replica row and Eq. 2's exact queue term there. A dead
// shard falls back to replica row 0, so policies that do not filter
// availability (the ablations, the oracle) keep their pre-replication
// behaviour; availability-aware callers filter with ShardFailed first.
func servingQueue(e *engine.Engine, shard int, nowMS float64) (row int, queueMS float64) {
	node := e.Cluster.SelectReplica(shard, nowMS)
	if node < 0 {
		node = shard
	}
	return e.Cluster.Topo().ReplicaOf(node), e.Cluster.QueueDelayMS(node, nowMS)
}

// Decide implements engine.Policy: Algorithm 1 over the fleet's
// predictions.
func (c *Cottage) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	if e.Fleet == nil {
		panic("core: Cottage requires a trained fleet (engine.TrainFleet)")
	}
	db, buf := decisionBufs(e)
	buf.reports = c.appendReports(buf.reports[:0], e, q, nowMS)
	return c.decideFromReports(e, buf.reports, db, buf)
}

// decideFromReports runs Algorithm 1 over reports and builds the
// Decision in db, with buf as Algorithm 1's storage.
func (c *Cottage) decideFromReports(e *engine.Engine, reports []ISNReport, db *engine.DecisionBuffers, buf *budgetBuf) engine.Decision {
	d := engine.Decision{
		Participate:    db.Participate,
		Freq:           db.Freq,
		CoordMS:        coordOverheadMS(e),
		UsedPredictors: true,
		PredCycles:     db.PredCycles,
	}
	for _, r := range reports {
		d.PredCycles[r.ISN] = r.PredCycles
	}
	var missing []int
	for si := range e.Shards {
		if e.Cluster.ShardFailed(si) {
			missing = append(missing, si)
		}
	}
	var res BudgetResult
	res, d.Record = c.Params.budget(reports, missing, e.Cluster.Ladder,
		BudgetOptions{StrictTopK: c.StrictTopK, Downclock: c.Downclock}, e.Obs != nil, buf)
	if len(res.Selected) == 0 {
		// Every candidate was cut (or nothing matched). Fall back to the
		// highest-expected-quality ISN so the client never gets an empty
		// result for a matching query.
		best, bestISN := -1.0, -1
		for _, r := range reports {
			if r.ExpQK > best {
				best, bestISN = r.ExpQK, r.ISN
			}
		}
		if bestISN >= 0 {
			d.Participate[bestISN] = true
			d.Freq[bestISN] = e.Cluster.Ladder.Default()
			d.BudgetMS = math.Inf(1)
		}
		return d
	}
	d.BudgetMS = res.BudgetMS
	for _, a := range res.Selected {
		d.Participate[a.ISN] = true
		f := a.Freq
		if !c.Boost {
			f = e.Cluster.Ladder.Default()
		}
		d.Freq[a.ISN] = f
	}
	return d
}
