package baselines

import (
	"cottage/internal/cluster"
	"cottage/internal/engine"
	"cottage/internal/trace"
)

// FixedSLA represents the class of power managers the paper positions
// Cottage against (Pegasus, TimeTrader, Rubik — Section VI): the time
// budget is *given a priori* as a fixed SLA, and the only lever is DVFS —
// every ISN picks the lowest frequency whose predicted equivalent latency
// still meets the SLA (slack reclamation), boosting when the prediction
// says it would miss. No ISN is ever cut: quality is preserved unless the
// prediction errs, but no energy is saved on zero-contribution ISNs and
// the client always waits out slow shards up to the SLA.
//
// Comparing FixedSLA with Cottage isolates the paper's thesis: choosing
// the budget *per query* (and cutting useless ISNs) beats any fixed
// budget on both latency and power.
type FixedSLA struct {
	// BudgetMS is the a-priori deadline every query gets.
	BudgetMS float64
}

// slaLatencyMargin is Cottage's safety margin on predicted service times
// (core.NewCottage's LatencyMargin), applied the same way here.
const slaLatencyMargin = 0.5

// Name implements engine.Policy.
func (p *FixedSLA) Name() string { return "sla-dvfs" }

// Decide implements engine.Policy.
func (p *FixedSLA) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	if e.Fleet == nil {
		panic("baselines: FixedSLA requires a trained fleet")
	}
	preds := e.Predictions(q)
	d := engine.Decision{
		Participate:    make([]bool, len(e.Shards)),
		Freq:           make([]float64, len(e.Shards)),
		BudgetMS:       p.BudgetMS,
		CoordMS:        e.Cluster.InferMS,
		UsedPredictors: true,
	}
	ladder := e.Cluster.Ladder
	for isn, pr := range preds {
		d.Participate[isn] = true
		d.Freq[isn] = ladder.Default()
		if !pr.Matched {
			// Dictionary miss: trivial work, run at the floor.
			d.Freq[isn] = ladder.Levels[0]
			continue
		}
		cycles := pr.Cycles * (1 + slaLatencyMargin)
		queue := e.Cluster.QueueDelayMS(isn, nowMS)
		for _, f := range ladder.Levels {
			if queue+cluster.ServiceMS(cycles, f) <= p.BudgetMS {
				d.Freq[isn] = f
				break
			}
			d.Freq[isn] = ladder.Max() // nothing fits: race at max
		}
	}
	return d
}
