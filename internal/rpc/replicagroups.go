package rpc

import (
	"fmt"
	"strconv"
	"time"

	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/replica"
)

// EnableReplicaGroups replaces the one-client-per-shard layout
// NewAggregator starts with by replica groups: groups[s] lists the
// client indices serving shard s, and every per-query leg (prediction,
// search) is routed to the group's best live replica with mid-query
// failover to siblings. Client indices must be in range and appear in at
// most one group; every client keeps its own breaker, prober slot and
// accuracy history (identity is per address, never per group). Call
// before the first query and before StartProber.
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
// one per replica group.
func (a *Aggregator) Shards() int { return len(a.Groups) }

// replicaRow returns client ci's position within shard's group — the
// replica row recorded in traces and decision records.
func (a *Aggregator) replicaRow(shard, ci int) int {
	for i, m := range a.Groups[shard] {
		if m == ci {
			return i
		}
	}
	return 0
}

// rankShard orders a shard's replicas best-first by the shared selector
// rule (replica.RankInto): breaker state, then transport health, then
// rolling service time, then rolling predictor error. Ranking reads
// Breaker.State(), which never mutates; the half-open probe slot
// (Allow) is only spent on the replica a leg actually sends to. cands
// and order are the caller's scratch; the returned order is in order's
// storage (or the group itself, for a sole replica).
func (a *Aggregator) rankShard(shard int, cands []replica.Candidate, order []int) []int {
	members := a.Groups[shard]
	quarantine := a.quarantineLedger()
	if len(members) == 1 {
		// Nothing to order. Only quarantine takes a sole copy out of
		// selection (as replica.RankInto would); a broken or breaker-open one
		// is still the only place to send the leg.
		if quarantine.IsQuarantined(shard, members[0]) {
			return nil
		}
		return members
	}
	for _, ci := range members {
		st := overload.Closed
		if b := a.breaker(ci); b != nil {
			st = b.State()
		}
		var acc float64
		if a.Obs != nil {
			acc = a.Obs.Acc.EWMAAbsErrPct(ci)
		}
		cands = append(cands, replica.Candidate{
			ID:          ci,
			Quarantined: quarantine.IsQuarantined(shard, ci),
			Breaker:     st,
			Healthy:     !a.Clients[ci].Broken(),
			ServiceMS:   a.tracker.ServiceMS(ci),
			AccErrPct:   acc,
		})
	}
	return replica.RankInto(order, cands)
}

// failover runs one shard leg over the shard's ranked replicas until an
// attempt succeeds. A replica whose breaker refuses the send is skipped;
// every other one gets one call of attempt, under a span of its own
// named span, and the outcome feeds that replica's breaker. A replica
// that answers with a typed corruption error is quarantined. Each
// attempt after the first counts one failover. A leg with a deadline
// (> 0) hands each attempt what is left of it, not a fresh one, and is
// abandoned when nothing is left: degraded Algorithm 1 already priced
// the shard in, so the query survives. That check comes before the
// breaker's, so an abandoned leg spends no half-open probe. Returns nil
// once an attempt succeeds, else why the last replica failed (the
// callers prefix the shard). Groups are never empty, so an empty
// ranking means every replica of the shard is quarantined, and the leg
// fails with ErrShardCorrupt.
//
// attempt sends the leg to client ci, the replica in row row of the
// group, after sent earlier attempts; sp is its open span. On success it
// grafts the reply's spans and ends sp; on failure it may annotate sp,
// and failover records the error on sp and ends it.
func (q *fanout) failover(shard int, span string, failovers *obs.Counter, deadline time.Duration,
	attempt func(sp *obs.ActiveSpan, ci, row, sent int, remaining time.Duration) error) error {
	a := q.a
	var absDeadline time.Time
	if deadline > 0 {
		absDeadline = time.Now().Add(deadline)
	}
	var lastErr error
	sent := 0
	// The ranking's scratch lives in this leg's frame: a query's legs
	// run concurrently, and a replica group is a few copies (a larger
	// one spills to the heap).
	var cands [4]replica.Candidate
	var order [4]int
	for _, ci := range a.rankShard(shard, cands[:0], order[:0]) {
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
			failovers.Inc()
		}
		sp := q.tb.StartSpan(span, q.parent.ID(), nowUS())
		err := attempt(sp, ci, a.replicaRow(shard, ci), sent, remaining)
		a.observeBreaker(ci, err)
		sent++
		if err == nil {
			return nil
		}
		if IsShardCorrupt(err) {
			a.noteCorrupt(shard, ci, err)
		}
		sp.SetAttr("error", err.Error())
		sp.End(nowUS())
		lastErr = fmt.Errorf("replica %d: %w", ci, err)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("every replica quarantined: %w", ErrShardCorrupt)
	}
	return lastErr
}

// graft hangs a reply's server-side spans on the query's trace, under
// the shard that served them.
func (q *fanout) graft(shard int, spans []obs.Span) {
	for si := range spans {
		spans[si].ISN = shard
	}
	q.tb.AddSpans(spans)
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
