package core

import (
	"fmt"

	"cottage/internal/cluster"
	"cottage/internal/obs"
)

// NewDecisionRecord converts one Algorithm 1 run into the span
// annotation obs traces carry: the chosen budget, which ISN set it, who
// got boosted/downclocked/dropped, and every report's inputs. Both
// serving paths build their records here, through Params.Budget, so a
// trace reads the same regardless of substrate.
//
// missing lists ISNs whose predictions never arrived; mode is the
// degraded policy that handled them (recorded only when missing is
// non-empty).
func NewDecisionRecord(res BudgetResult, reports []ISNReport, missing []int,
	mode DegradedMode, ladder cluster.Ladder) *obs.DecisionRecord {

	d := &obs.DecisionRecord{
		BudgetMS:  res.BudgetMS,
		BudgetISN: res.BudgetISN,
		Dropped:   append([]int(nil), res.Cut...),
		Missing:   append([]int(nil), missing...),
	}
	byISN := make(map[int]Assignment, len(res.Selected))
	for _, a := range res.Selected {
		d.Selected = append(d.Selected, a.ISN)
		if a.Boosted {
			d.Boosted = append(d.Boosted, a.ISN)
		}
		if a.Downclocked {
			d.Downclocked = append(d.Downclocked, a.ISN)
		}
		byISN[a.ISN] = a
	}
	if len(missing) > 0 {
		d.DegradedMode = mode.String()
		d.DegradedReason = fmt.Sprintf("%d of %d predictions missing", len(missing), len(reports)+len(missing))
	}
	for _, r := range reports {
		rr := obs.ReportRecord{
			ISN:        r.ISN,
			Replica:    r.Replica,
			QK:         r.QK,
			QK2:        r.QK2,
			HasK:       r.HasK,
			HasK2:      r.HasK2,
			LCurrentMS: r.LCurrent,
			LBoostedMS: r.LBoosted,
			FreqGHz:    ladder.Default(),
		}
		if a, ok := byISN[r.ISN]; ok {
			rr.FreqGHz = a.Freq
			rr.Boosted = a.Boosted
			rr.Downclocked = a.Downclocked
		} else {
			rr.Cut = true
		}
		// Operational prediction at the assigned frequency: the shared
		// queue term plus the (margined) service time — what Algorithm 1
		// believed this ISN would take. PredServiceMS strips margin and
		// queue: the raw model output accuracy tracking scores.
		queue := r.LCurrent - cluster.ServiceMS(r.PredCycles, ladder.Default())
		if queue < 0 {
			queue = 0
		}
		rr.PredLatencyMS = queue + cluster.ServiceMS(r.PredCycles, rr.FreqGHz)
		rr.PredServiceMS = cluster.ServiceMS(r.RawCycles, rr.FreqGHz)
		d.Reports = append(d.Reports, rr)
	}
	return d
}
