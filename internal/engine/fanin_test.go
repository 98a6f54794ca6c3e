package engine

import (
	"math"
	"reflect"
	"testing"

	"cottage/internal/cluster"
	"cottage/internal/obs"
	"cottage/internal/obs/slo"
	"cottage/internal/search"
)

// TestGatherFilesEachStatus runs the shared fan-in over one leg per
// status. Each leg carries a hit that would top the merge and a
// prediction, so the table shows, per status, whether the leg's hits
// are merged, how it is filed and counted, whether a truncation reaches
// the decision record, which accuracy samples it feeds, and whether the
// query reads as degraded to the SLO monitor.
func TestGatherFilesEachStatus(t *testing.T) {
	cases := []struct {
		status                    cluster.LegStatus
		merged, active, lat, qual bool
		failed, truncated         bool
		count                     func(*Outcome) int // the status's own counter; nil for answered
	}{
		{cluster.LegAnswered, true, true, true, true, false, false, nil},
		{cluster.LegTruncated, true, true, false, true, false, true, func(o *Outcome) int { return o.TruncatedISNs }},
		{cluster.LegDropped, false, true, false, true, false, false, func(o *Outcome) int { return o.DroppedISNs }},
		{cluster.LegCorrupt, false, false, false, true, false, false, func(o *Outcome) int { return o.CorruptISNs }},
		{cluster.LegFailed, false, false, false, false, true, false, func(o *Outcome) int { return o.FailedISNs }},
		{cluster.LegSevered, false, false, false, false, true, false, func(o *Outcome) int { return o.FailedISNs }},
		{cluster.LegShed, false, false, false, false, false, false, func(o *Outcome) int { return o.ShedISNs }},
	}
	for _, tc := range cases {
		const shard = 3
		legs := []Leg{{Shard: shard, Client: shard, Status: tc.status, ScoreBound: 2.5, Failovers: 1, DocsScored: 7,
			Hits: []search.Hit{{Doc: 11, Score: 9}}, Pred: LegPred{OK: true, LatencyMS: 12, HasK: true}, ActualMS: 10}}
		rec := &obs.DecisionRecord{Reports: []obs.ReportRecord{{ISN: shard}}}
		acc := obs.NewAccuracy(shard + 1)
		var out Outcome
		var f Filing
		hits := Gather(10, legs, rec, acc, nil, &out, &f, nil)

		if got := len(hits) == 1; got != tc.merged {
			t.Errorf("status %d: hits %v, merged %v", tc.status, hits, tc.merged)
		}
		if !reflect.DeepEqual(f.Selected, []int{shard}) {
			t.Errorf("status %d: selected %v", tc.status, f.Selected)
		}
		if got := len(f.Failed) == 1; got != tc.failed {
			t.Errorf("status %d: failed %v, want listed %v", tc.status, f.Failed, tc.failed)
		}
		if got := len(f.Truncated) == 1 && len(rec.Truncated) == 1; got != tc.truncated ||
			rec.Reports[0].Truncated != tc.truncated || (tc.truncated && rec.Reports[0].ScoreBound != 2.5) {
			t.Errorf("status %d: filing %v, record %+v, want truncated %v", tc.status, f.Truncated, rec, tc.truncated)
		}
		if got := out.ActiveISNs == 1; got != tc.active {
			t.Errorf("status %d: %d active, want active %v", tc.status, out.ActiveISNs, tc.active)
		}
		if tc.count != nil && tc.count(&out) != 1 {
			t.Errorf("status %d: outcome %+v misses its counter", tc.status, out)
		}
		if out.Failovers != 1 || out.DocsSearched != 7 {
			t.Errorf("status %d: %d failovers, %d docs searched, want 1 and 7", tc.status, out.Failovers, out.DocsSearched)
		}
		if got := out.Degraded(); got != (tc.status != cluster.LegAnswered) {
			t.Errorf("status %d: degraded %v", tc.status, got)
		}
		a := acc.Snapshot()[shard]
		if (a.LatSamples == 1) != tc.lat || (a.QualSamples == 1) != tc.qual {
			t.Errorf("status %d: %d latency and %d quality samples, want %v and %v",
				tc.status, a.LatSamples, a.QualSamples, tc.lat, tc.qual)
		}
		// Against the merged answer, a leg whose hits were merged placed a
		// document in the top K, as it predicted; one whose hits were not
		// did not, and its prediction was wrong.
		if tc.qual && (a.QualHitRate == 1) != tc.merged {
			t.Errorf("status %d: quality hit rate %v", tc.status, a.QualHitRate)
		}
	}
}

// TestGatherMergesInLegOrder: several legs at once. Only answered and
// truncated hits are merged; Failed comes back sorted after any shard
// the caller listed first; a reference top K and a leg's Truth replace
// the merged answer and the leg's own hits in the quality call; and
// without an accuracy tracker nothing is scored.
func TestGatherMergesInLegOrder(t *testing.T) {
	legs := []Leg{
		{Shard: 5, Status: cluster.LegFailed},
		{Shard: 0, Status: cluster.LegAnswered, Hits: []search.Hit{{Doc: 1, Score: 5}, {Doc: 2, Score: 1}}},
		{Shard: 2, Status: cluster.LegTruncated, Hits: []search.Hit{{Doc: 3, Score: 4}}},
		{Shard: 4, Status: cluster.LegDropped, Hits: []search.Hit{{Doc: 9, Score: 9}}},
		{Shard: 3, Client: 1, Status: cluster.LegDropped, Pred: LegPred{OK: true, HasK: true},
			Truth: []search.Hit{{Doc: 8, Score: 2}}},
	}
	f := Filing{Failed: []int{6}}
	var out Outcome
	hits := Gather(10, legs, nil, nil, nil, &out, &f, nil)
	want := []search.Hit{{Doc: 1, Score: 5}, {Doc: 3, Score: 4}, {Doc: 2, Score: 1}}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("merged %v, want %v", hits, want)
	}
	if !reflect.DeepEqual(f.Selected, []int{5, 0, 2, 4, 3}) || !reflect.DeepEqual(f.Failed, []int{5, 6}) {
		t.Fatalf("filing %+v", f)
	}

	acc := obs.NewAccuracy(2)
	Gather(10, legs, nil, acc, map[int64]bool{8: true}, &Outcome{}, nil, nil)
	if a := acc.Snapshot()[1]; a.QualSamples != 1 || a.QualHitRate != 1 || a.LatSamples != 0 {
		t.Fatalf("dropped leg scored %+v, want one quality hit on its truth", a)
	}
}

// TestFinishQuery: the shared finish records the latency, a finite
// positive budget only, seals and stamps the trace, and tells the SLO
// monitor a failed query is over any latency limit.
func TestFinishQuery(t *testing.T) {
	tel := Telemetry{Obs: obs.NewObserver(1, 4)}
	h := tel.Hists("test")
	for _, budget := range []float64{0, math.Inf(1), 4} {
		tb := obs.NewTraceBuilder(0)
		root := tb.StartSpan("query", 0, 0)
		root.End(1000)
		if id := tel.FinishQuery(h, tb, 1, budget, false, false); id != tb.TraceID() {
			t.Fatalf("trace ID %#x, builder's %#x", id, tb.TraceID())
		}
	}
	if n := h.latency.Snapshot().Count; n != 3 {
		t.Errorf("%d latencies, want 3", n)
	}
	if b := h.budget.Snapshot(); b.Count != 1 || b.Sum != 4 {
		t.Errorf("budget histogram %+v, want the one finite budget", b)
	}
	if n := tel.Obs.Traces.Total(); n != 3 {
		t.Errorf("%d traces recorded, want 3", n)
	}

	burning := func(o *slo.Objective) bool { fast, _ := o.Burn(); return fast > 0 }
	for _, tc := range []struct{ failed, degraded, slow, poor bool }{
		{false, false, false, false},
		{false, true, false, true},
		{true, false, true, true},
	} {
		mon := slo.New(slo.Config{})
		q := &slo.QuerySLO{LatencyMS: 60_000, Latency: mon.Objective("latency", 0.01), Quality: mon.Objective("quality", 0.01)}
		if id := (&Telemetry{SLO: q}).FinishQuery(QueryHists{}, nil, 1, 4, tc.failed, tc.degraded); id != 0 {
			t.Errorf("no observer, trace ID %#x", id)
		}
		if burning(q.Latency) != tc.slow || burning(q.Quality) != tc.poor {
			t.Errorf("failed %v degraded %v: latency burning %v, quality burning %v",
				tc.failed, tc.degraded, burning(q.Latency), burning(q.Quality))
		}
	}
}
