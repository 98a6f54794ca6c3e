package anatomy

import (
	"math"
	"testing"

	"cottage/internal/obs"
)

// span is a shorthand Span constructor for hand-built trees.
func span(trace, id, parent uint64, name string, isn int, startUS, durUS int64, attrs map[string]string) obs.Span {
	return obs.Span{Trace: trace, ID: id, Parent: parent, Name: name, ISN: isn,
		StartUS: startUS, DurUS: durUS, Attrs: attrs}
}

// twinTrace builds the simulated twin's span shape: virtual-time spans,
// queue/service split carried as leg attrs. Root runs 0..20ms; the
// critical leg (ISN 1) has queue 1ms + service 17.4ms + 0.2ms of fabric.
func twinTrace() *obs.Trace {
	return &obs.Trace{ID: 42, Spans: []obs.Span{
		span(42, 1, 0, "query", -1, 0, 20000, nil),
		span(42, 2, 1, "predict", -1, 200, 1000, nil),
		span(42, 3, 1, "budget", -1, 1200, 0, nil),
		span(42, 4, 1, "search", -1, 1200, 18600, nil),
		span(42, 5, 4, "search.isn", 0, 1200, 13800,
			map[string]string{"queue_ms": "2", "service_ms": "10.5"}),
		span(42, 6, 4, "search.isn", 1, 1200, 18600,
			map[string]string{"queue_ms": "1", "service_ms": "17.4"}),
		span(42, 7, 1, "merge", -1, 19800, 0, nil),
	}}
}

func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestFromTraceTwinShape(t *testing.T) {
	a, ok := FromTrace(twinTrace())
	if !ok {
		t.Fatal("FromTrace rejected a well-formed trace")
	}
	if a.TraceID != 42 {
		t.Fatalf("TraceID = %d", a.TraceID)
	}
	near(t, "total", a.TotalMS, 20)
	near(t, "predict", a.Phase[PhasePredict], 1)
	near(t, "budget", a.Phase[PhaseBudget], 0)
	near(t, "queue", a.Phase[PhaseQueue], 1)       // critical leg's queue_ms
	near(t, "search", a.Phase[PhaseSearch], 17.4)  // critical leg's service_ms
	near(t, "network", a.Phase[PhaseNetwork], 0.6) // 0.2 pre + 0.2 post + 0.2 fabric
	near(t, "hedge", a.Phase[PhaseHedge], 0)
	near(t, "failover", a.Phase[PhaseFailover], 0)
	near(t, "other", a.Phase[PhaseOther], 0)
	near(t, "named==total", a.NamedMS()+a.Phase[PhaseOther], a.TotalMS)
}

// liveLeg is a live search leg as the aggregator writes it: the
// queue/service split it read off its grafted serve.search child (serve
// span 6.4 ms, 1.4 ms of it queued) on the leg itself, like the twin's.
func liveLeg(trace, id, parent uint64, startUS int64) []obs.Span {
	return []obs.Span{
		span(trace, id, parent, "search.isn", 0, startUS, 7400,
			map[string]string{"replica": "0", "queue_ms": "1.4", "service_ms": "5"}),
		span(trace, id+1, id, "serve.search", 0, startUS+500, 6400,
			map[string]string{"queue_wait_us": "1400", "service_us": "5000"}),
	}
}

func TestFromTraceLiveShape(t *testing.T) {
	tr := &obs.Trace{ID: 7, Spans: append([]obs.Span{
		span(7, 1, 0, "query", -1, 0, 10000, nil),
		span(7, 2, 1, "predict", -1, 0, 2000, nil),
		span(7, 3, 1, "budget", -1, 2000, 100, nil),
		span(7, 4, 1, "search", -1, 2100, 7400, nil),
		span(7, 7, 1, "merge", -1, 9500, 400, nil),
	}, liveLeg(7, 5, 4, 2100)...)}
	a, ok := FromTrace(tr)
	if !ok {
		t.Fatal("FromTrace rejected live-shaped trace")
	}
	near(t, "total", a.TotalMS, 10)
	near(t, "predict", a.Phase[PhasePredict], 2)
	near(t, "budget", a.Phase[PhaseBudget], 0.1)
	near(t, "queue", a.Phase[PhaseQueue], 1.4)
	near(t, "search", a.Phase[PhaseSearch], 5)
	// Leg net: 7.4 - 1.4 - 5 = 1.0; client post-merge gap: 0.1.
	near(t, "network", a.Phase[PhaseNetwork], 1.1)
	near(t, "merge", a.Phase[PhaseMerge], 0.4)
	near(t, "other", a.Phase[PhaseOther], 0)
	near(t, "named==total", a.NamedMS(), a.TotalMS)
}

// TestFromTraceMemoHit: a query whose predictions all came out of the
// aggregator's memo records a predict span with no legs and next to no
// duration. The phase is simply small; everything still sums to the total.
func TestFromTraceMemoHit(t *testing.T) {
	tr := &obs.Trace{ID: 8, Spans: append([]obs.Span{
		span(8, 1, 0, "query", -1, 0, 8000, nil),
		span(8, 2, 1, "predict", -1, 0, 0, map[string]string{"memo": "hit"}),
		span(8, 3, 1, "budget", -1, 0, 100, nil),
		span(8, 4, 1, "search", -1, 100, 7400, nil),
		span(8, 7, 1, "merge", -1, 7500, 400, nil),
	}, liveLeg(8, 5, 4, 100)...)}
	a, ok := FromTrace(tr)
	if !ok {
		t.Fatal("FromTrace rejected a trace with a legless predict span")
	}
	near(t, "total", a.TotalMS, 8)
	near(t, "predict", a.Phase[PhasePredict], 0)
	near(t, "budget", a.Phase[PhaseBudget], 0.1)
	near(t, "queue", a.Phase[PhaseQueue], 1.4)
	near(t, "search", a.Phase[PhaseSearch], 5)
	near(t, "network", a.Phase[PhaseNetwork], 1.1) // leg net 1.0 + 0.1 after the merge
	near(t, "merge", a.Phase[PhaseMerge], 0.4)
	near(t, "named+other==total", a.NamedMS()+a.Phase[PhaseOther], a.TotalMS)
}

func TestFromTraceHedgeAndFailover(t *testing.T) {
	// Critical leg won by a hedge after a 3 ms timer, preceded by a
	// failed attempt on the same shard (live failover shape).
	tr := &obs.Trace{ID: 9, Spans: []obs.Span{
		span(9, 1, 0, "query", -1, 0, 30000, nil),
		span(9, 2, 1, "search", -1, 0, 30000, nil),
		span(9, 3, 2, "search.isn", 0, 0, 4000,
			map[string]string{"error": "connection reset"}),
		span(9, 4, 2, "search.isn", 0, 4000, 26000,
			map[string]string{"queue_ms": "2", "service_ms": "18", "hedge_wait_ms": "3"}),
	}}
	a, ok := FromTrace(tr)
	if !ok {
		t.Fatal("FromTrace rejected trace")
	}
	near(t, "queue", a.Phase[PhaseQueue], 2)
	near(t, "search", a.Phase[PhaseSearch], 18)
	near(t, "hedge", a.Phase[PhaseHedge], 3)
	near(t, "failover", a.Phase[PhaseFailover], 4) // the failed sibling attempt
	// Leg net: 26 - 2 - 18 - 3 = 3.
	near(t, "network", a.Phase[PhaseNetwork], 3)
}

func TestFromTraceTwinFailoverAttr(t *testing.T) {
	// Twin shape: failover detection time is an attr on the one leg span.
	tr := &obs.Trace{ID: 11, Spans: []obs.Span{
		span(11, 1, 0, "query", -1, 0, 12000, nil),
		span(11, 2, 1, "search", -1, 0, 12000, nil),
		span(11, 3, 2, "search.isn", 0, 0, 12000,
			map[string]string{"queue_ms": "0.5", "service_ms": "6", "failover_ms": "4"}),
	}}
	a, ok := FromTrace(tr)
	if !ok {
		t.Fatal("FromTrace rejected trace")
	}
	near(t, "failover", a.Phase[PhaseFailover], 4)
	near(t, "queue", a.Phase[PhaseQueue], 0.5)
	near(t, "search", a.Phase[PhaseSearch], 6)
	near(t, "network", a.Phase[PhaseNetwork], 1.5) // 12 - 0.5 - 6 - 4
}

func TestFromTraceAllLegsFailed(t *testing.T) {
	tr := &obs.Trace{ID: 13, Spans: []obs.Span{
		span(13, 1, 0, "query", -1, 0, 8000, nil),
		span(13, 2, 1, "search", -1, 0, 8000, nil),
		span(13, 3, 2, "search.isn", 0, 0, 8000,
			map[string]string{"failed": "true"}),
	}}
	a, ok := FromTrace(tr)
	if !ok {
		t.Fatal("FromTrace rejected trace")
	}
	near(t, "failover", a.Phase[PhaseFailover], 8)
	near(t, "search", a.Phase[PhaseSearch], 0)
}

func TestFromTraceStragglerWait(t *testing.T) {
	// Search stage outlasts its slowest successful leg (budget expiry on
	// a dropped shard): the wait is charged to the search phase.
	tr := &obs.Trace{ID: 15, Spans: []obs.Span{
		span(15, 1, 0, "query", -1, 0, 25000, nil),
		span(15, 2, 1, "search", -1, 0, 25000, nil),
		span(15, 3, 2, "search.isn", 0, 0, 10000,
			map[string]string{"queue_ms": "0", "service_ms": "9.9"}),
		span(15, 4, 2, "search.isn", 1, 0, 15000,
			map[string]string{"conn_dropped": "true"}),
	}}
	a, ok := FromTrace(tr)
	if !ok {
		t.Fatal("FromTrace rejected trace")
	}
	// service 9.9 + straggler wait (25 - 10) = 24.9.
	near(t, "search", a.Phase[PhaseSearch], 24.9)
}

func TestFromTraceRejects(t *testing.T) {
	if _, ok := FromTrace(nil); ok {
		t.Error("nil trace accepted")
	}
	if _, ok := FromTrace(&obs.Trace{ID: 1}); ok {
		t.Error("rootless trace accepted")
	}
	zero := &obs.Trace{ID: 2, Spans: []obs.Span{span(2, 1, 0, "query", -1, 0, 0, nil)}}
	if _, ok := FromTrace(zero); ok {
		t.Error("zero-duration root accepted")
	}
	hit := &obs.Trace{ID: 3, Spans: []obs.Span{span(3, 1, 0, "query", -1, 0, 40, nil)}}
	if _, ok := FromTrace(hit); ok {
		t.Error("stageless root (a cache hit) accepted")
	}
}

func TestAttrFMalformed(t *testing.T) {
	sp := &obs.Span{Attrs: map[string]string{"a": "not-a-number", "b": "-3", "c": "2.5"}}
	if v := attrF(sp, "a"); v != 0 {
		t.Errorf("malformed attr parsed to %v", v)
	}
	if v := attrF(sp, "b"); v != 0 {
		t.Errorf("negative attr parsed to %v", v)
	}
	if v := attrF(sp, "c"); v != 2.5 {
		t.Errorf("attr c = %v", v)
	}
	if v := attrF(sp, "missing"); v != 0 {
		t.Errorf("missing attr parsed to %v", v)
	}
}

// TestAttributionHotPathAllocs is the regression gate for the
// aggregator hot path: decomposing a trace and folding it into the
// collector must not allocate in steady state.
func TestAttributionHotPathAllocs(t *testing.T) {
	tr := twinTrace()
	c := NewCollector(64)
	// Warm up: first observations may touch lazily-initialized state.
	for i := 0; i < 10; i++ {
		if a, ok := FromTrace(tr); ok {
			c.Observe(a)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a, ok := FromTrace(tr)
		if !ok {
			t.Fatal("FromTrace rejected trace")
		}
		c.Observe(a)
	})
	if allocs != 0 {
		t.Fatalf("FromTrace+Observe allocates %v per run, want 0", allocs)
	}
}
