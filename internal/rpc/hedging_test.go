package rpc

import (
	"testing"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/engine"
	"cottage/internal/faults"
	"cottage/internal/obs"
)

// TestHedgeFor pins the per-leg hedge timer rule: fixed-delay mode
// echoes Hedge.AfterMS (or never), predictive mode hedges flagged legs
// immediately and everything else never.
func TestHedgeFor(t *testing.T) {
	cases := []struct {
		name        string
		predictive  bool
		afterMS     float64
		thresholdMS float64
		lcurMS      float64
		havePred    bool
		want        time.Duration
	}{
		{name: "timer/off", want: -1},
		{name: "timer/set", afterMS: 20, want: 20 * time.Millisecond},
		{name: "predictive/flagged", predictive: true, thresholdMS: 10, lcurMS: 50, havePred: true, want: 0},
		{name: "predictive/below-threshold", predictive: true, thresholdMS: 10, lcurMS: 5, havePred: true, want: -1},
		{name: "predictive/no-prediction", predictive: true, thresholdMS: 10, lcurMS: 50, havePred: false, want: -1},
		{name: "predictive/zero-threshold", predictive: true, lcurMS: 50, havePred: true, want: -1},
		// Predictive mode owns the decision: a leftover AfterMS must
		// not leak timer hedges onto unflagged legs.
		{name: "predictive/ignores-timer", predictive: true, afterMS: 20, thresholdMS: 10, lcurMS: 5, havePred: true, want: -1},
	}
	for _, tc := range cases {
		a := &Aggregator{Hedge: cluster.Hedge{AfterMS: tc.afterMS, Predictive: tc.predictive, ThresholdMS: tc.thresholdMS}}
		if got := a.hedgeFor(tc.lcurMS, tc.havePred); got != tc.want {
			t.Errorf("%s: hedgeFor(%v, %v) = %v, want %v", tc.name, tc.lcurMS, tc.havePred, got, tc.want)
		}
	}
}

// TestPredictiveHedgeDispatch drives a search leg against a uniformly
// slow ISN under predictive hedging: a leg whose queue-corrected
// prediction crosses the threshold gets its duplicate at dispatch (one
// hedge, no waiting out a timer), while an unflagged leg rides out the
// same slow reply without ever hedging.
func TestPredictiveHedgeDispatch(t *testing.T) {
	sh := buildShard(t, 46)
	in := faults.NewInjector(12)
	in.SetPlan(0, faults.Plan{SlowMS: 30})
	addr, stop := startFaultyServer(t, sh, nil, in, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(5 * time.Second)

	agg := NewAggregator([]*Client{c}, 5)
	agg.Hedge = cluster.Hedge{Predictive: true, ThresholdMS: 10}

	// Unflagged: predicted 5ms < 10ms threshold. The reply takes ~30ms,
	// but a fixed 20ms timer that would have fired here must not exist.
	r, _, err := agg.searchHedged(&engine.Leg{}, 0, obs.SpanContext{}, []string{"ga"}, 0, agg.hedgeFor(5, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) == 0 {
		t.Fatal("unflagged leg returned nothing")
	}
	if st := agg.Stats(); st.Hedges != 0 {
		t.Fatalf("unflagged leg hedged: %+v", st)
	}

	// Flagged: predicted 50ms > threshold — the duplicate goes out
	// immediately rather than after any delay.
	r, _, err = agg.searchHedged(&engine.Leg{}, 0, obs.SpanContext{}, []string{"ga"}, 0, agg.hedgeFor(50, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) == 0 {
		t.Fatal("flagged leg returned nothing")
	}
	if st := agg.Stats(); st.Hedges != 1 {
		t.Fatalf("flagged leg did not hedge exactly once: %+v", st)
	}
}

// TestPredictiveModeSuppressesExhaustiveTimer: SearchExhaustive has no
// prediction step, so under predictive hedging it must never hedge —
// even with an AfterMS short enough that timer mode would fire.
func TestPredictiveModeSuppressesExhaustiveTimer(t *testing.T) {
	sh := buildShard(t, 47)
	in := faults.NewInjector(17)
	in.SetPlan(0, faults.Plan{SlowMS: 30})
	addr, stop := startFaultyServer(t, sh, nil, in, 0)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(5 * time.Second)

	agg := NewAggregator([]*Client{c}, 5)
	agg.Hedge = cluster.Hedge{AfterMS: 5, Predictive: true, ThresholdMS: 10}

	res, err := agg.SearchExhaustive([]string{"ga"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits from slow ISN")
	}
	if st := agg.Stats(); st.Hedges != 0 {
		t.Fatalf("predictive mode fired a timer hedge on the exhaustive path: %+v", st)
	}
}
