package engine

import (
	"math"
	"sort"
	"strconv"

	"cottage/internal/cluster"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/obs/slo"
	"cottage/internal/search"
)

// This file is step 7 of Fig. 5 — "responses are merged; stragglers are
// dropped" — written once for both serving paths. The live aggregator
// (internal/rpc) and the twin each run their own transport and fill one
// Leg per shard; Gather files, merges and scores the legs, and
// Telemetry.FinishQuery reports the query.

// Leg is one shard's search leg, whichever transport ran it.
type Leg struct {
	Shard int
	// Client is the accuracy slot the leg's prediction is scored under:
	// the serving client live (the replica selector's per-copy signal),
	// the shard in the twin (its replicas share documents and hardware).
	Client     int
	Replica    int               // the serving copy's row in the shard's replica group
	Failovers  int               // sibling attempts lost before the one that ended the leg
	Status     cluster.LegStatus // how the leg ended; the twin's Execution reports the same
	ScoreBound float64           // LegTruncated: no unseen document scores above it
	Hits       []search.Hit      // merged when LegAnswered or LegTruncated
	// Truth is the shard's exhaustive top K where the caller knows it
	// (the twin). Quality is scored on it instead of Hits, so a leg cut
	// or dropped at the budget is judged on what its shard holds.
	Truth      []search.Hit
	DocsScored int
	Err        error // why a LegFailed leg failed (live)

	// Pred is the policy's prediction for the leg, scored against
	// ActualMS and against whether the leg placed a document in the
	// reference top K.
	Pred     LegPred
	ActualMS float64

	// Span timing in ms: the split anatomy.FromTrace reads off the leg.
	QueueMS, ServiceMS float64
	HedgeWaitMS        float64 // the timer wait before a winning duplicate
	FailoverMS         float64 // twin: failover detection inside the span
	FreqGHz            float64 // twin: the DVFS frequency the leg ran at
	EndMS              float64 // twin: when the reply reached the aggregator
	Hedged             bool    // a duplicate request was sent
}

// LegPred is one leg's prediction as the accuracy tracker scores it.
type LegPred struct {
	OK        bool    // there is a prediction to score
	LatencyMS float64 // compared with Leg.ActualMS
	HasK      bool    // the leg should place a document in the top K
}

// Filing lists a query's shards by how their legs ended: the live
// Result's view of step 7 (the twin counts them in Outcome instead).
type Filing struct {
	Selected []int // ISN indices searched
	// Failed lists ISNs that errored or timed out; their contributions
	// are missing from Hits (degraded but non-empty results, the
	// behaviour a production aggregator prefers over failing the query).
	Failed []int
	// Truncated lists ISNs that answered with a deadline-terminated
	// anytime result: their hits are exact but possibly incomplete.
	Truncated []int
}

// MergeBuf is storage Gather merges in. The hits Gather returns alias
// it, valid until the next Gather with the same MergeBuf: the twin keeps
// one per engine, and the live aggregator, whose hits go back to its
// caller, passes nil for fresh ones.
type MergeBuf struct {
	lists [][]search.Hit
	hits  []search.Hit
}

// Gather walks one query's legs in leg order: it counts each in out
// (and lists it in f, when set), folds truncated legs into rec, and
// merges the answered and truncated hits into the top k, in buf (nil:
// fresh storage). With acc set it scores each leg's prediction: latency
// on answered legs only (a cut leg's time is the budget, not the
// query's cost), quality on every leg that reached a node, as whether
// the leg placed a document in ref — the merged answer when ref is nil.
func Gather(k int, legs []Leg, rec *obs.DecisionRecord, acc *obs.Accuracy, ref map[int64]bool, out *Outcome, f *Filing, buf *MergeBuf) []search.Hit {
	if buf == nil {
		buf = &MergeBuf{hits: []search.Hit{}} // search.Merge's storage
	}
	if cap(buf.lists) < len(legs) {
		buf.lists = make([][]search.Hit, 0, len(legs))
	}
	lists := buf.lists[:0]
	for i := range legs {
		l := &legs[i]
		out.Failovers += l.Failovers
		out.DocsSearched += l.DocsScored
		if l.Status < cluster.LegCorrupt {
			out.ActiveISNs++
		}
		if f != nil {
			f.Selected = append(f.Selected, l.Shard)
		}
		switch l.Status {
		case cluster.LegAnswered:
			lists = append(lists, l.Hits)
		case cluster.LegTruncated:
			lists = append(lists, l.Hits)
			out.TruncatedISNs++
			rec.MarkTruncated(l.Shard, l.ScoreBound)
			if f != nil {
				f.Truncated = append(f.Truncated, l.Shard)
			}
		case cluster.LegDropped:
			out.DroppedISNs++
		case cluster.LegCorrupt:
			out.CorruptISNs++
		case cluster.LegFailed, cluster.LegSevered:
			out.FailedISNs++
			if f != nil {
				f.Failed = append(f.Failed, l.Shard)
			}
		case cluster.LegShed:
			out.ShedISNs++
		}
	}
	if f != nil {
		sort.Ints(f.Failed) // the caller may have listed some first (live: missing predictions)
	}
	buf.lists = lists
	buf.hits = search.MergeInto(buf.hits, k, lists...)
	hits := buf.hits
	for i := range legs {
		l := &legs[i]
		if acc == nil || !l.Pred.OK || l.Status >= cluster.LegFailed {
			continue
		}
		if l.Status == cluster.LegAnswered {
			acc.ObserveLatency(l.Client, l.Pred.LatencyMS, l.ActualMS)
		}
		if ref == nil {
			ref = search.DocSet(hits)
		}
		scored := l.Hits
		if l.Truth != nil {
			scored = l.Truth
		}
		acc.ObserveQuality(l.Client, l.Pred.HasK, search.Overlap(scored, ref) > 0)
	}
	return hits
}

// Degraded reports whether any participant's hits are missing or
// partial — the quality signal the SLO monitor hears.
func (o *Outcome) Degraded() bool {
	return o.FailedISNs+o.TruncatedISNs+o.DroppedISNs+o.ShedISNs+o.CorruptISNs > 0
}

// fmtMS formats a span attr value so that it parses back bit for bit.
func fmtMS(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Annotate writes the leg on its search.isn span, in the one vocabulary
// both paths share and anatomy.FromTrace reads: the serving replica and
// its failovers, the frequency it ran at, whether it was hedged and the
// timer wait a winning duplicate put on the critical path, the failover
// detection inside the span, and how it ended — a queue/service split
// for a leg a node ran, with "truncated" and its score bound or
// "dropped" when the leg brought back less than its shard holds, or the
// failure that lost it. A nil span costs nothing.
func (l *Leg) Annotate(sp *obs.ActiveSpan) {
	if sp == nil {
		return
	}
	sp.SetISN(l.Shard)
	sp.SetAttr("replica", strconv.Itoa(l.Replica))
	if l.Failovers > 0 {
		sp.SetAttr("failovers", strconv.Itoa(l.Failovers))
	}
	if l.FreqGHz > 0 {
		sp.SetAttr("freq_ghz", fmtMS(l.FreqGHz))
	}
	if l.Hedged {
		sp.SetAttr("hedged", "true")
	}
	if l.HedgeWaitMS > 0 {
		sp.SetAttr("hedge_wait_ms", fmtMS(l.HedgeWaitMS))
	}
	if l.FailoverMS > 0 {
		sp.SetAttr("failover_ms", fmtMS(l.FailoverMS))
	}
	switch l.Status {
	case cluster.LegFailed:
		sp.SetAttr("failed", "true")
	case cluster.LegSevered:
		sp.SetAttr("conn_dropped", "true")
	case cluster.LegShed:
		sp.SetAttr("shed", "true")
	default:
		sp.SetAttr("queue_ms", fmtMS(l.QueueMS))
		sp.SetAttr("service_ms", fmtMS(l.ServiceMS))
		switch l.Status {
		case cluster.LegTruncated:
			sp.SetAttr("truncated", "true")
			sp.SetAttr("score_bound", fmtMS(l.ScoreBound))
		case cluster.LegDropped, cluster.LegCorrupt:
			sp.SetAttr("dropped", "true")
		}
	}
}

// Telemetry is where a serving path reports its queries; the live
// aggregator and the twin both embed it. Set its fields before
// concurrent use.
type Telemetry struct {
	// Obs, when set, records one trace per query (predict → budget →
	// search → merge, the per-ISN legs and the Algorithm 1 decision
	// record), the latency and budget histograms, and rolling predictor
	// accuracy.
	Obs *obs.Observer
	// Anatomy, when set alongside Obs, receives every traced query's
	// per-phase latency attribution.
	Anatomy *anatomy.Collector
	// SLO, when set, is fed every query's latency and quality signal
	// (degraded = any shard's hits missing or partial) for burn-rate
	// alerting.
	SLO *slo.QuerySLO
}

// QueryHists are one serving mode's per-query histograms, resolved once
// so the per-query path never touches the registry. The zero value
// (no observer) records nothing.
type QueryHists struct{ latency, budget *obs.Histogram }

// Hists registers (create-or-get) mode's query histograms on the
// observer's registry, and the anatomy collector alongside.
func (t *Telemetry) Hists(mode string) QueryHists {
	if t.Obs == nil {
		return QueryHists{}
	}
	reg := t.Obs.Reg
	t.Anatomy.Register(reg)
	return QueryHists{
		latency: reg.Histogram("cottage_agg_query_ms",
			"End-to-end query latency at the aggregator (virtual time on the twin).",
			obs.LatencyBucketsMS(), obs.L("mode", mode)),
		budget: reg.Histogram("cottage_agg_budget_ms",
			"Algorithm 1 time budget T per query (finite budgets only).",
			obs.LatencyBucketsMS()),
	}
}

// Accuracy is the observer's predictor-accuracy tracker, nil without one.
func (t *Telemetry) Accuracy() *obs.Accuracy {
	if t.Obs == nil {
		return nil
	}
	return t.Obs.Acc
}

// FinishQuery is every query's last step on either path, whatever it
// came to, once the caller has ended the trace's root span: the latency
// goes to the mode's histogram and a finite budget to the budget
// histogram; the trace (nil without an observer) is sealed, recorded
// and attributed to phases; and the burn-rate monitor hears of the
// query after its trace, so a page it triggers finds the trace already
// in the flight recorder. failed marks a query that returned an error
// instead of an answer: degraded, and past any latency limit however
// fast it failed. It returns the trace's ID (0 without one).
func (t *Telemetry) FinishQuery(h QueryHists, tb *obs.TraceBuilder, latencyMS, budgetMS float64, failed, degraded bool) uint64 {
	if h.latency != nil {
		h.latency.Observe(latencyMS)
		if budgetMS > 0 && !math.IsInf(budgetMS, 1) {
			h.budget.Observe(budgetMS)
		}
	}
	var id uint64
	if tr := tb.Finish(); tr != nil {
		t.Obs.AddTrace(tr)
		id = tr.ID
		if t.Anatomy != nil {
			if attr, ok := anatomy.FromTrace(tr); ok {
				t.Anatomy.Observe(attr)
			}
		}
	}
	if t.SLO != nil {
		if failed {
			latencyMS = math.Inf(1)
		}
		t.SLO.ObserveQuery(latencyMS, failed || degraded)
	}
	return id
}
