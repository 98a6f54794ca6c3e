// Package anatomy decomposes a query's end-to-end latency into named
// phases — where did the milliseconds go? — and aggregates the answer
// into a tail-anatomy report: per-phase histograms with exemplar trace
// IDs, and "which phase owns the p99?" at p50/p95/p99.
//
// Attribution is derived purely from the span tree obs records, so both
// serving paths feed it with no extra clocks: the live aggregator
// (internal/rpc, wall-clock spans) and the simulated twin
// (internal/engine, virtual-time spans) write their search legs with
// one function (engine.Leg.Annotate), and FromTrace reads that one
// shape. The decomposition follows
// the critical path: the aggregator-side predict/budget/merge stages
// are taken at face value, and the search stage is split along the
// shard leg that finished last (the leg the aggregator actually waited
// for) into admission-queue, search service, hedge wait, failover
// retries and network.
//
// Hot-path discipline: FromTrace and Collector.Observe allocate
// nothing in steady state (fixed arrays, atomic exemplar slots, a
// preallocated ring) — the alloc regression test holds them to zero.
package anatomy

import (
	"strconv"

	"cottage/internal/obs"
)

// Phase is one named slice of a query's wall time.
type Phase int

// The phases, in display order. Every microsecond of a query's
// end-to-end latency lands in exactly one: the aggregator stages
// (predict, budget, merge) are their span durations; the search stage
// is split along the critical shard leg; PhaseOther is the residual
// (scheduler slack, span bookkeeping) so the phases always sum to the
// end-to-end total by construction.
const (
	PhasePredict  Phase = iota // prediction fan-out (step 2-3)
	PhaseBudget                // Algorithm 1 budget determination
	PhaseQueue                 // admission-queue wait at the serving ISN
	PhaseNetwork               // client + fabric hops on the critical path
	PhaseSearch                // search service time + straggler wait
	PhaseMerge                 // top-K merge
	PhaseHedge                 // hedge-wait: timer before a winning duplicate
	PhaseFailover              // failover-retry: attempts burned before the answer
	PhaseOther                 // residual (unattributed slack)
	NumPhases
)

var phaseNames = [NumPhases]string{
	"predict", "budget", "admission-queue", "network",
	"search", "merge", "hedge-wait", "failover-retry", "other",
}

// String returns the phase's report/metric label.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// Attribution is one query's decomposed wall time. Phase entries sum to
// TotalMS (PhaseOther absorbs the residual). A value type with no
// pointers, so observing one allocates nothing.
type Attribution struct {
	TraceID uint64
	TotalMS float64
	Phase   [NumPhases]float64
}

// NamedMS returns the time attributed to named phases (everything but
// PhaseOther) — the numerator of the reconciliation check.
func (a *Attribution) NamedMS() float64 {
	s := 0.0
	for p := 0; p < int(PhaseOther); p++ {
		s += a.Phase[p]
	}
	return s
}

func durMS(sp *obs.Span) float64 { return float64(sp.DurUS) / 1000 }

// legFailed reports whether a search.isn span is a failed attempt: the
// live path stamps "error" on each attempt a failover abandoned, and a
// leg that returned no hits carries "failed" / "shed" / "conn_dropped".
func legFailed(sp *obs.Span) bool {
	for _, k := range [...]string{"error", "failed", "shed", "conn_dropped"} {
		if _, ok := sp.Attrs[k]; ok {
			return true
		}
	}
	return false
}

// attrF parses a float span attr, returning 0 when absent or malformed.
func attrF(sp *obs.Span, key string) float64 {
	v, ok := sp.Attrs[key]
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		return 0
	}
	return f
}

// FromTrace decomposes a completed trace into a phase attribution.
// Returns ok=false when the trace has no root span, no elapsed time or
// no stage under the root (an aggregator cache hit): nothing to
// attribute. Allocation-free on well-formed traces.
//
// Search legs carry queue_ms / service_ms / hedge_wait_ms attrs, and
// failover time either as failover_ms inside the leg (the twin) or as
// failed sibling "search.isn" spans with an "error" attr (live).
func FromTrace(t *obs.Trace) (Attribution, bool) {
	var a Attribution
	if t == nil {
		return a, false
	}
	spans := t.Spans
	var root *obs.Span
	for i := range spans {
		if spans[i].Parent == 0 {
			root = &spans[i]
			break
		}
	}
	if root == nil || root.DurUS <= 0 {
		return a, false
	}
	a.TraceID = t.ID
	a.TotalMS = durMS(root)

	var predict, budget, searchSp, merge *obs.Span
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != root.ID {
			continue
		}
		switch sp.Name {
		case "predict":
			if predict == nil {
				predict = sp
			}
		case "budget":
			if budget == nil {
				budget = sp
			}
		case "search":
			if searchSp == nil {
				searchSp = sp
			}
		case "merge":
			if merge == nil {
				merge = sp
			}
		}
	}
	if predict != nil {
		a.Phase[PhasePredict] = durMS(predict)
	}
	if budget != nil {
		a.Phase[PhaseBudget] = durMS(budget)
	}
	if merge != nil {
		a.Phase[PhaseMerge] = durMS(merge)
	}

	// Client-side network: root time before the first aggregator stage
	// and after the last one. On the twin this is the modeled client
	// round trip; on the live path it is (near-)zero.
	first, last := int64(-1), int64(-1)
	for _, sp := range [...]*obs.Span{predict, budget, searchSp, merge} {
		if sp == nil {
			continue
		}
		end := sp.StartUS + sp.DurUS
		if first < 0 || sp.StartUS < first {
			first = sp.StartUS
		}
		if end > last {
			last = end
		}
	}
	if first < 0 {
		return Attribution{}, false
	}
	if pre := first - root.StartUS; pre > 0 {
		a.Phase[PhaseNetwork] += float64(pre) / 1000
	}
	if post := root.StartUS + root.DurUS - last; post > 0 {
		a.Phase[PhaseNetwork] += float64(post) / 1000
	}

	if searchSp != nil {
		decomposeSearch(spans, searchSp, &a)
	}

	// Residual: whatever the named phases did not cover. Components live
	// inside the root span, so the clamp only fires on pathological
	// (overlapping) trees; phases then still sum to >= TotalMS.
	if rem := a.TotalMS - a.NamedMS(); rem > 0 {
		a.Phase[PhaseOther] = rem
	}
	return a, true
}

// decomposeSearch splits the search stage along the critical shard leg:
// the successful "search.isn" span that ended last is the leg the
// aggregator was actually waiting for.
func decomposeSearch(spans []obs.Span, searchSp *obs.Span, a *Attribution) {
	var crit *obs.Span
	var critEnd int64
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != searchSp.ID || sp.Name != "search.isn" {
			continue
		}
		if legFailed(sp) {
			continue
		}
		if end := sp.StartUS + sp.DurUS; crit == nil || end > critEnd {
			crit, critEnd = sp, end
		}
	}
	searchEnd := searchSp.StartUS + searchSp.DurUS
	if crit == nil {
		// No leg survived: the whole stage was spent burning through
		// failed attempts (or waiting out the budget on them).
		a.Phase[PhaseFailover] += durMS(searchSp)
		return
	}

	legMS := durMS(crit)
	hedge := attrF(crit, "hedge_wait_ms")
	inlineFailover := attrF(crit, "failover_ms") // twin: retries inside the leg span
	queue := attrF(crit, "queue_ms")
	service := attrF(crit, "service_ms")

	// Failed sibling attempts on the critical shard (live failover runs
	// them serially before the surviving leg, as separate error spans).
	failover := inlineFailover
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != searchSp.ID || sp.Name != "search.isn" || sp == crit || sp.ISN != crit.ISN {
			continue
		}
		if legFailed(sp) {
			failover += durMS(sp)
		}
	}

	a.Phase[PhaseQueue] += queue
	a.Phase[PhaseSearch] += service
	a.Phase[PhaseHedge] += hedge
	a.Phase[PhaseFailover] += failover
	if net := legMS - queue - service - hedge - inlineFailover; net > 0 {
		a.Phase[PhaseNetwork] += net
	}
	// Straggler wait: the stage outlasting its slowest successful leg —
	// the aggregator holding the merge for a budget that expires on
	// dropped shards. That wait is search-stage time.
	if tail := float64(searchEnd-critEnd) / 1000; tail > 0 {
		a.Phase[PhaseSearch] += tail
	}
}
