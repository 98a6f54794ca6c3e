package core

import (
	"math"
	"reflect"
	"testing"

	"cottage/internal/baselines"
	"cottage/internal/engine"
	"cottage/internal/predict"
	"cottage/internal/qcache"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// recordingPolicy wraps a policy and, on every decision, holds what
// e.Predictions serves to a fresh query-major PredictAll, bit for bit.
type recordingPolicy struct {
	engine.Policy
	t       *testing.T
	decided int
}

func (r *recordingPolicy) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	got := e.Predictions(q)
	want := e.Fleet.PredictAll(e.Shards, q.Terms)
	if len(got) != len(want) {
		r.t.Fatalf("query %d: %d predictions, want %d", q.ID, len(got), len(want))
	}
	for isn := range want {
		if predBits(got[isn]) != predBits(want[isn]) {
			r.t.Fatalf("query %d ISN %d: Predictions %+v, PredictAll %+v", q.ID, isn, got[isn], want[isn])
		}
	}
	r.decided++
	return r.Policy.Decide(e, q, nowMS)
}

// predBits is a Prediction with its floats as IEEE bit patterns.
func predBits(p predict.Prediction) [7]uint64 {
	m := uint64(0)
	if p.Matched {
		m = 1
	}
	return [7]uint64{m, uint64(p.QK), uint64(p.QK2), math.Float64bits(p.Cycles),
		math.Float64bits(p.PZeroK), math.Float64bits(p.PZeroK2), math.Float64bits(p.ExpQK)}
}

// TestRunServesPredictionsFromTrace: inside Run, the predictions a policy
// gets come from the ISN-major table, and they equal PredictAll for every
// query — with and without the aggregator cache, whose hits skip Decide —
// so the replay is the same replay. A policy that never asks never fills
// the table.
func TestRunServesPredictionsFromTrace(t *testing.T) {
	eng, evs := trainedTwin(t)
	for _, cached := range []bool{false, true} {
		if cached {
			eng.Cache = qcache.NewLRU[[]search.Hit](32)
		}
		want := eng.Run(NewCottage(), evs)
		rec := &recordingPolicy{Policy: NewCottage(), t: t}
		got := eng.Run(rec, evs)
		eng.Cache = nil
		if !reflect.DeepEqual(got.Outcomes, want.Outcomes) || got.AvgPowerW != want.AvgPowerW {
			t.Fatalf("cache=%v: recording the predictions changed the replay", cached)
		}
		if rec.decided == 0 || (!cached && rec.decided != len(evs)) {
			t.Fatalf("cache=%v: %d decisions over %d queries", cached, rec.decided, len(evs))
		}
	}

	// Outside Run, Predictions is PredictAll.
	for _, ev := range evs[:5] {
		if !reflect.DeepEqual(eng.Predictions(ev.Query), eng.Fleet.PredictAll(eng.Shards, ev.Query.Terms)) {
			t.Fatalf("query %d: Predictions outside Run differs from PredictAll", ev.Query.ID)
		}
	}

	// A fleet with no predictors panics on any prediction, so an
	// exhaustive replay over it proves the table was never filled.
	fleet := eng.Fleet
	eng.Fleet = &predict.Fleet{K: fleet.K}
	defer func() { eng.Fleet = fleet }()
	eng.Run(baselines.Exhaustive{}, evs)
}

// BenchmarkRunCottage is one twin replay of the fixture's evaluated
// queries under Cottage per op: what the benchmark's twin_qps times.
func BenchmarkRunCottage(b *testing.B) {
	eng, evs := trainedTwin(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(NewCottage(), evs)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(evs)), "us/query")
}
