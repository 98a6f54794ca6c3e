package rpc

import (
	"math"
	"reflect"
	"testing"

	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/obs"
	"cottage/internal/predict"
)

// TestLiveMatchesTwinDecision: the live aggregator and the simulated
// twin make Cottage's per-query decision with the same code, so from the
// same inputs they decide the same. The twin runs the fixture's shards
// with its own copy of the same predictors, configured like the live
// side (no latency margin, no downclocking); a fresh cluster and a
// server with no limiter make the Eq. 2 queue term zero on both. For
// every query the live decision record equals the twin's bit for bit,
// and the live result's budget and searched shards are the twin's.
func TestLiveMatchesTwinDecision(t *testing.T) {
	isns, qs := memoFleet(t, nil)
	agg := NewAggregator(dialFleet(t, isns), 10)
	agg.Obs = obs.NewObserver(len(isns), len(qs))

	shards := memoFixture.shards
	eng := engine.New(shards, engine.DefaultConfig())
	eng.Fleet = &predict.Fleet{K: memoFixture.fleet.K}
	for _, p := range memoFixture.fleet.Predictors {
		eng.Fleet.Predictors = append(eng.Fleet.Predictors, clonePredictor(t, p))
	}
	eng.Obs = obs.NewObserver(len(shards), 1)
	pol := core.NewCottage()
	pol.LatencyMargin = 0
	pol.Downclock = false

	compared := 0
	for _, q := range qs {
		res := mustCottage(t, agg, q.Terms)
		tr := newestTrace(t, agg)
		live := tr.Find("budget").Decision
		d := pol.Decide(eng, q, 0)
		if !reflect.DeepEqual(live, d.Record) {
			t.Fatalf("query %v: live decision\n%+v\ntwin decision\n%+v", q.Terms, live, d.Record)
		}
		if math.Float64bits(res.BudgetMS) != math.Float64bits(live.BudgetMS) {
			t.Fatalf("query %v: live budget %v, recorded %v", q.Terms, res.BudgetMS, live.BudgetMS)
		}
		var twinSelected []int
		for s, ok := range d.Participate {
			if ok {
				twinSelected = append(twinSelected, s)
			}
		}
		if len(res.Selected) == 0 {
			// Algorithm 1 kept no ISN. Live answers with no hits; the twin
			// falls back to the best-ExpQK shard with no budget.
			if len(live.Selected) != 0 || !math.IsInf(d.BudgetMS, 1) || len(twinSelected) > 1 {
				t.Fatalf("query %v: empty live selection, twin %v under budget %v", q.Terms, twinSelected, d.BudgetMS)
			}
			continue
		}
		if math.Float64bits(res.BudgetMS) != math.Float64bits(d.BudgetMS) || !reflect.DeepEqual(res.Selected, twinSelected) {
			t.Fatalf("query %v: live budget %v on %v, twin %v on %v",
				q.Terms, res.BudgetMS, res.Selected, d.BudgetMS, twinSelected)
		}
		compared++
	}
	if compared < len(qs)/2 {
		t.Fatalf("only %d of %d queries selected a shard", compared, len(qs))
	}
}
