package engine

import (
	"math"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/faults"
)

// TestFailedISNDegradesRun: failing nodes mid-fleet must degrade quality
// and stretch latency (the aggregator waits out its failure-detection
// timeout), never error or zero out the run.
func TestFailedISNDegradesRun(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs)
	p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}

	healthy := Summarize(e.Run(p, evs))

	e.Cluster.Faults = faults.NewInjector(0)
	e.Cluster.Faults.Crash(1)
	e.Cluster.Faults.Crash(4)
	defer e.Cluster.ClearFaults()
	degraded := e.Run(p, evs)
	sm := Summarize(degraded)

	if sm.MeanPAtK >= healthy.MeanPAtK {
		t.Errorf("losing 2/8 shards should cost quality: %.3f vs %.3f", sm.MeanPAtK, healthy.MeanPAtK)
	}
	if sm.MeanPAtK <= 0 {
		t.Error("degraded run produced no quality at all")
	}
	if sm.FailedFrac != 1 {
		t.Errorf("every query hit a dead ISN, FailedFrac = %.3f", sm.FailedFrac)
	}
	for _, o := range degraded.Outcomes {
		if o.FailedISNs != 2 {
			t.Fatalf("query %d: FailedISNs = %d, want 2", o.QueryID, o.FailedISNs)
		}
		if o.ActiveISNs != len(e.Shards)-2 {
			t.Fatalf("query %d: ActiveISNs = %d", o.QueryID, o.ActiveISNs)
		}
		// With no budget, the aggregator waits out the failure timeout.
		if o.LatencyMS < cluster.FailTimeoutMS {
			t.Fatalf("query %d: latency %.2f below failure-detection timeout", o.QueryID, o.LatencyMS)
		}
	}
	if sm.MeanLatency <= healthy.MeanLatency {
		t.Errorf("waiting on dead ISNs should cost latency: %.2f vs %.2f",
			sm.MeanLatency, healthy.MeanLatency)
	}
}

// TestBudgetBoundsFailureWait: with a finite budget the dead-ISN wait is
// capped by the budget, not the (longer) failure-detection timeout.
func TestBudgetBoundsFailureWait(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs[:30])
	e.Cluster.Faults = faults.NewInjector(0)
	e.Cluster.Faults.Crash(0)
	defer e.Cluster.ClearFaults()

	budget := 20.0
	if budget >= cluster.FailTimeoutMS {
		t.Fatalf("test premise broken: budget %.0f >= fail timeout %d", budget, cluster.FailTimeoutMS)
	}
	res := e.Run(&fixedPolicy{name: "budgeted", select_: all, budgetMS: budget}, evs)
	slack := budget + 4*e.Cluster.Net.AggToISNMS + 2*e.Cluster.Net.ClientMS + 1
	for _, o := range res.Outcomes {
		if o.LatencyMS > slack {
			t.Fatalf("query %d: latency %.2f exceeds budget-bounded wait %.2f", o.QueryID, o.LatencyMS, slack)
		}
	}
}
