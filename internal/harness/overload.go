package harness

import (
	"fmt"
	"io"
	"math"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/stats"
)

// Overload is the "overload" extra: bounded per-ISN admission queues
// under 1x-4x offered load. It is the simulated twin of the live
// transport's overload.Limiter — same policy (arrivals that would queue
// past the bound are shed with an immediate rejection), measured at a
// scale and determinism wall-clock tests cannot give. The sweep reports,
// per load factor and policy: the shed rate, the p99 latency of
// *admitted* queries (the point of shedding — the served tail stays
// bounded while offered load quadruples), and Cottage's mean budget
// (which inflates with load because Eq. 2's equivalent latency folds
// the growing backlog into every prediction).
func Overload(s *Setup, w io.Writer) error {
	points, bound := RunOverloadSweep(s.Engine, s.WikiEval)
	fmt.Fprintf(w, "per-ISN queue bound: %.2f ms (shed on arrival past the bound)\n", bound)
	fmt.Fprintf(w, "%-6s %-12s %10s %10s %12s %11s %9s\n",
		"load", "policy", "shed disp", "shed qry", "admit p99", "budget ms", "power W")
	byKey := make(map[string]OverloadPoint, len(points))
	for _, pt := range points {
		fmt.Fprintf(w, "%-6s %-12s %9.1f%% %9.1f%% %12.2f %11.2f %9.2f\n",
			fmt.Sprintf("%.0fx", pt.Factor), pt.Policy,
			100*pt.ShedDisp, 100*pt.QShed, pt.AdmitP99, pt.BudgetMS, pt.PowerW)
		byKey[fmt.Sprintf("%s@%g", pt.Policy, pt.Factor)] = pt
	}
	base, peak := byKey["cottage@1"], byKey["cottage@4"]
	if base.BudgetMS > 0 {
		fmt.Fprintf(w, "cottage budget inflation at 4x load: %.2fx (Eq. 2 backlog correction)\n",
			peak.BudgetMS/base.BudgetMS)
	}
	exB, exP := byKey["exhaustive@1"], byKey["exhaustive@4"]
	if exB.AdmitP99 > 0 {
		fmt.Fprintf(w, "exhaustive admitted p99 at 4x load: %.2fx of 1x (bounded queues hold the served tail)\n",
			exP.AdmitP99/exB.AdmitP99)
	}
	return nil
}

// OverloadPoint is one (load factor, policy) cell of the sweep.
type OverloadPoint struct {
	Factor   float64
	Policy   string
	ShedDisp float64 // shed dispatches / total dispatches
	QShed    float64 // queries with at least one shed participant
	AdmitP99 float64 // p99 latency over queries with >= 1 active ISN
	BudgetMS float64 // mean finite budget (0 for budget-less policies)
	PowerW   float64
}

// OverloadFactors are the offered-load multipliers the sweep replays.
var OverloadFactors = []float64{1, 2, 3, 4}

// RunOverloadSweep replays the trace at OverloadFactors under exhaustive
// and Cottage with per-ISN queues bounded by a bound derived from the
// workload itself: half the p99 latency of an unbounded exhaustive
// replay at nominal load, so the sweep is meaningful at both quick and
// full scale. Returns the points (factors × policies, in order) and the
// bound used. The engine's queue bound is restored afterwards.
func RunOverloadSweep(e *engine.Engine, evs []*engine.Evaluated) ([]OverloadPoint, float64) {
	prev := e.Cluster.MaxQueueMS
	defer func() { e.Cluster.MaxQueueMS = prev }()

	e.Cluster.MaxQueueMS = 0
	maxQueueMS := engine.Summarize(e.Run(baselines.Exhaustive{}, evs)).P99Latency / 2
	e.Cluster.MaxQueueMS = maxQueueMS

	policies := []engine.Policy{baselines.Exhaustive{}, core.NewCottage()}
	var points []OverloadPoint
	for _, f := range OverloadFactors {
		scaled := scaleArrivals(evs, f)
		for _, p := range policies {
			r := e.Run(p, scaled)
			pt := OverloadPoint{Factor: f, Policy: p.Name(), PowerW: r.AvgPowerW}
			shedDisp, totalDisp, qShed := 0, 0, 0
			var admitted []float64
			budgetSum, budgetN := 0.0, 0
			for _, o := range r.Outcomes {
				shedDisp += o.ShedISNs
				totalDisp += o.ShedISNs + o.ActiveISNs + o.FailedISNs
				if o.ShedISNs > 0 {
					qShed++
				}
				if o.ActiveISNs > 0 {
					admitted = append(admitted, o.LatencyMS)
				}
				if o.BudgetMS > 0 && !math.IsInf(o.BudgetMS, 1) {
					budgetSum += o.BudgetMS
					budgetN++
				}
			}
			if totalDisp > 0 {
				pt.ShedDisp = float64(shedDisp) / float64(totalDisp)
			}
			if n := len(r.Outcomes); n > 0 {
				pt.QShed = float64(qShed) / float64(n)
			}
			if len(admitted) > 0 {
				pt.AdmitP99 = stats.Percentile(admitted, 99)
			}
			if budgetN > 0 {
				pt.BudgetMS = budgetSum / float64(budgetN)
			}
			points = append(points, pt)
		}
	}
	return points, maxQueueMS
}
