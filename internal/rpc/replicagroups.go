package rpc

import (
	"fmt"
	"strconv"
	"time"

	"cottage/internal/engine"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/predict"
	"cottage/internal/replica"
)

// EnableReplicaGroups switches the aggregator from a flat ISN list to
// replica groups: groups[s] lists the client indices serving shard s,
// and every per-query leg (prediction, search) is routed to the group's
// best live replica with mid-query failover to siblings. Client indices
// must be in range and appear in at most one group; every client keeps
// its own breaker, prober slot and accuracy history (identity is per
// address, never per group). Call before the first query and before
// StartProber.
func (a *Aggregator) EnableReplicaGroups(groups [][]int) error {
	seen := make([]bool, len(a.Clients))
	for gi, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("rpc: replica group %d is empty", gi)
		}
		for _, ci := range g {
			if ci < 0 || ci >= len(a.Clients) {
				return fmt.Errorf("rpc: replica group %d references client %d of %d", gi, ci, len(a.Clients))
			}
			if seen[ci] {
				return fmt.Errorf("rpc: client %d appears in more than one replica group", ci)
			}
			seen[ci] = true
		}
	}
	a.Groups = groups
	a.tracker = replica.NewTracker(len(a.Clients))
	return nil
}

// Shards returns how many logical shards the aggregator fans out to:
// one per replica group, or one per client on unreplicated fleets.
func (a *Aggregator) Shards() int {
	if a.Groups == nil {
		return len(a.Clients)
	}
	return len(a.Groups)
}

// group returns shard s's client indices (a singleton on unreplicated
// fleets, where client index == shard index). The slice is shared:
// callers must not modify it.
func (a *Aggregator) group(s int) []int {
	if a.Groups == nil {
		a.soloOnce.Do(func() {
			a.solo = make([]int, len(a.Clients))
			for i := range a.solo {
				a.solo[i] = i
			}
		})
		return a.solo[s : s+1 : s+1]
	}
	return a.Groups[s]
}

// replicaRow returns client ci's position within shard's group — the
// replica row recorded in traces and decision records.
func (a *Aggregator) replicaRow(shard, ci int) int {
	for i, m := range a.group(shard) {
		if m == ci {
			return i
		}
	}
	return 0
}

// rankShard orders a shard's replicas best-first by the shared selector
// rule (replica.Rank): breaker state, then transport health, then
// rolling service time, then rolling predictor error. Ranking reads
// Breaker.State(), which never mutates; the half-open probe slot
// (Allow) is only spent on the replica a leg actually sends to.
func (a *Aggregator) rankShard(shard int) []int {
	members := a.group(shard)
	quarantine := a.quarantineLedger()
	if len(members) == 1 {
		// Nothing to order. Only quarantine takes a sole copy out of
		// selection (as replica.Rank would); a broken or breaker-open one
		// is still the only place to send the leg.
		if quarantine.IsQuarantined(shard, members[0]) {
			return nil
		}
		return members
	}
	cands := make([]replica.Candidate, len(members))
	for i, ci := range members {
		st := overload.Closed
		if b := a.breaker(ci); b != nil {
			st = b.State()
		}
		var acc float64
		if a.Obs != nil {
			acc = a.Obs.Acc.EWMAAbsErrPct(ci)
		}
		cands[i] = replica.Candidate{
			ID:          ci,
			Quarantined: quarantine.IsQuarantined(shard, ci),
			Breaker:     st,
			Healthy:     !a.Clients[ci].Broken(),
			ServiceMS:   a.tracker.ServiceMS(ci),
			AccErrPct:   acc,
		}
	}
	return replica.Rank(cands)
}

// predictLeg is the outcome of one shard's prediction leg.
type predictLeg struct {
	client    int // serving client index, -1 when the whole group failed
	row       int // replica row within the group
	failovers int // sibling retries burned before the answer
	pred      predict.Prediction
	load      QueueInfo
	// epoch is the serving client's epoch if it held still across the
	// round trip, else zero: an answer that cannot be pinned to one
	// epoch is used for this query and not remembered.
	epoch uint64
	err   error
}

// predictShard runs one shard's prediction leg over its ranked replicas
// with mid-query failover: a replica that errors (or whose breaker
// refuses the send) forfeits the leg to the next-ranked sibling. Only
// when the whole group fails does the shard become a missing prediction
// for degraded-mode Algorithm 1.
func (a *Aggregator) predictShard(shard int, tb *obs.TraceBuilder, parent *obs.ActiveSpan, terms []string) predictLeg {
	out := predictLeg{client: -1}
	var lastErr error
	sent := 0
	for _, ci := range a.rankShard(shard) {
		if b := a.breaker(ci); b != nil && !b.Allow() {
			lastErr = fmt.Errorf("replica %d: circuit open", ci)
			continue
		}
		if sent > 0 {
			a.failoversPredict.Inc()
		}
		leg := tb.StartSpan("predict.isn", parent.ID(), nowUS())
		leg.SetISN(shard)
		row := a.replicaRow(shard, ci)
		leg.SetAttr("replica", strconv.Itoa(row))
		if sent > 0 {
			leg.SetAttr("failover", strconv.Itoa(sent))
		}
		c := a.Clients[ci]
		epoch := c.epoch.Load()
		p, load, spans, err := c.PredictLoadSpan(leg.Context(), terms)
		a.observeBreaker(ci, err)
		sent++
		if err != nil {
			if IsShardCorrupt(err) {
				a.noteCorrupt(shard, ci, err)
			}
			leg.SetAttr("error", err.Error())
			leg.End(nowUS())
			lastErr = fmt.Errorf("replica %d: %w", ci, err)
			continue
		}
		for si := range spans {
			spans[si].ISN = shard
		}
		tb.AddSpans(spans)
		leg.End(nowUS())
		out.client, out.row, out.failovers = ci, row, sent-1
		out.pred, out.load = p, load
		if c.epoch.Load() == epoch {
			out.epoch = epoch
		}
		return out
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no replicas configured")
	}
	out.err = fmt.Errorf("shard %d predict: %w", shard, lastErr)
	return out
}

// searchShard runs shard l.Shard's search leg into l over its ranked
// replicas with mid-query failover, composing with hedging (each attempt
// may itself hedge via searchHedged; hedge is the per-leg timer from
// hedgeFor). Retries inherit the remaining budget, not a fresh one: a
// failover late in the budget gets only what is left, and when nothing
// is left the leg is abandoned — degraded Algorithm 1 already priced the
// shard in, so the query survives. Each abandoned attempt keeps a span of
// its own; the answering one is written by Leg.Annotate.
func (a *Aggregator) searchShard(l *engine.Leg, tb *obs.TraceBuilder, parent *obs.ActiveSpan, terms []string, deadline, hedge time.Duration) {
	shard := l.Shard
	var absDeadline time.Time
	if deadline > 0 {
		absDeadline = time.Now().Add(deadline)
	}
	var lastErr error
	sent := 0
	for _, ci := range a.rankShard(shard) {
		remaining := deadline
		if deadline > 0 {
			remaining = time.Until(absDeadline)
			if remaining <= 0 {
				lastErr = fmt.Errorf("budget exhausted before replica %d", ci)
				break
			}
		}
		if b := a.breaker(ci); b != nil && !b.Allow() {
			lastErr = fmt.Errorf("replica %d: circuit open", ci)
			continue
		}
		if sent > 0 {
			a.failoversSearch.Inc()
		}
		leg := tb.StartSpan("search.isn", parent.ID(), nowUS())
		row := a.replicaRow(shard, ci)
		legStart := time.Now()
		r, spans, err := a.searchHedged(l, ci, leg.Context(), terms, remaining, hedge)
		a.observeBreaker(ci, err)
		sent++
		if err != nil {
			if IsShardCorrupt(err) {
				a.noteCorrupt(shard, ci, err)
			}
			lost := engine.Leg{Shard: shard, Replica: row, Failovers: sent - 1, Status: engine.LegFailed}
			lost.Annotate(leg)
			leg.SetAttr("error", err.Error())
			leg.End(nowUS())
			lastErr = fmt.Errorf("replica %d: %w", ci, err)
			continue
		}
		for si := range spans {
			spans[si].ISN = shard
		}
		tb.AddSpans(spans)
		l.Client, l.Replica, l.Failovers = ci, row, sent-1
		l.Hits = r.Hits
		if r.Terminated {
			l.Status, l.ScoreBound = engine.LegTruncated, r.ScoreBound
		}
		l.QueueMS, l.ServiceMS = serveSplit(spans, leg.ID())
		l.Annotate(leg)
		leg.End(nowUS())
		l.ActualMS = float64(time.Since(legStart).Microseconds()) / 1000
		a.tracker.Observe(ci, l.ActualMS)
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no replicas configured")
	}
	l.Status, l.Client, l.Err = engine.LegFailed, -1, fmt.Errorf("shard %d: %w", shard, lastErr)
}

// serveSplit reads a leg's queue/service split off the serve span its
// reply grafted in: the ISN's admission-queue wait, and the rest of its
// time on the request as service. Both are zero when the reply carried
// no span (an untraced query, or a server without an observer).
func serveSplit(spans []obs.Span, leg uint64) (queueMS, serviceMS float64) {
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != leg || sp.Name != "serve.search" {
			continue
		}
		if wait, err := strconv.ParseFloat(sp.Attrs["queue_wait_us"], 64); err == nil && wait > 0 {
			queueMS = wait / 1000
		}
		return queueMS, max(float64(sp.DurUS)/1000-queueMS, 0)
	}
	return 0, 0
}
