package rpc

import (
	"sync"

	"cottage/internal/core"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/predict"
	"cottage/internal/qcache"
)

// The prediction memo (DESIGN.md §19). What an ISN answers in the predict
// round is a pure, order-insensitive function of its shard and the
// query's terms (features.Extract MAX-aggregates per-term rows; the
// permutation test in internal/predict is the licence), and everything
// that is not — thresholds, the frequency ladder, the Eq. 2 queue term —
// the aggregator applies itself, per query. So the aggregator remembers
// the bare predict.Prediction each shard returned for a canonical term
// set and asks only the shards it holds no usable answer for: a repeated
// query skips the predict round altogether, and Algorithm 1, the search
// fan-out and the merge run exactly as they would have.
//
// A remembered prediction is used only while all three hold (usable):
//
//  1. the client that answered is in the epoch it answered in — no
//     reconnect (another process, another shard may sit behind the
//     address) and no quarantine (repair may swap the copy) since. A
//     quarantined replica is sent nothing, so it cannot answer in its
//     new epoch before it is readmitted;
//  2. that replica is healthy now: connection intact, breaker closed — a
//     shard in trouble takes its live leg, so failover and degraded-mode
//     Algorithm 1 see it as they always did;
//  3. its latest reply of any kind reported an empty admission queue.
//     Every reply carries the ISN's load, so Eq. 2 on a hit uses figures
//     at most one reply old; an ISN with a queue is asked live, and the
//     answer it gives is the freshest figure there is.

// predMemoCapacity bounds the memo's memory: at most this many
// predictions stay remembered, one per shard per query, so a 16-shard
// aggregator keeps 8192 queries and a 100-shard one 1310. At 72 B a slot
// plus the key and LRU bookkeeping that is at most ~11 MB.
const predMemoCapacity = 1 << 17

// memoSlot is one shard's remembered answer. A zero epoch marks a shard
// that has not answered (clients' epochs start at 1).
type memoSlot struct {
	pred   predict.Prediction
	client int    // index of the client that answered
	epoch  uint64 // that client's epoch when it did
}

// predMemo maps qcache.Key(terms) to one memoSlot per shard. Slot slices
// are immutable once stored: a query reads the slice it was handed
// without the lock, and a refresh stores a patched copy.
type predMemo struct {
	mu  sync.Mutex
	lru *qcache.LRU[[]memoSlot]
}

// newPredMemo sizes the memo for an aggregator of the given shard count.
func newPredMemo(shards int) *predMemo {
	return &predMemo{lru: qcache.NewLRU[[]memoSlot](max(1, predMemoCapacity/max(1, shards)))}
}

func (m *predMemo) get(key string) []memoSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	slots, _ := m.lru.Get(key)
	return slots
}

// put stores slots under key and reports whether the least recently
// used query was dropped to make room.
func (m *predMemo) put(key string, slots []memoSlot) (evicted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Put(key, slots)
}

func (m *predMemo) entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// registerMemo exposes the memo's counters and size on the aggregator's
// registry. The counters are Aggregator fields adopted in place, so
// Stats() and the registry read the same atomics.
func (a *Aggregator) registerMemo(reg *obs.Registry) {
	reg.Register("cottage_agg_predict_memo_hits_total",
		"Cottage queries whose every prediction came from the memo (no predict round).", &a.memoHits)
	reg.Register("cottage_agg_predict_memo_partial_total",
		"Cottage queries that asked some shards and took the rest from the memo.", &a.memoPartial)
	reg.Register("cottage_agg_predict_memo_misses_total",
		"Cottage queries that asked every shard.", &a.memoMisses)
	reg.Register("cottage_agg_predict_memo_evictions_total",
		"Remembered queries dropped to stay within the memo's capacity.", &a.memoEvictions)
	reg.GaugeFunc("cottage_agg_predict_memo_entries",
		"Queries currently remembered by the prediction memo.",
		func() float64 { return float64(a.predMemo().entries()) })
}

// predMemo returns the aggregator's memo, built on first use so that
// struct-literal aggregators have one too and its capacity is divided by
// the shard count in force when queries start.
func (a *Aggregator) predMemo() *predMemo {
	a.memoOnce.Do(func() { a.memo = newPredMemo(a.Shards()) })
	return a.memo
}

// usable reports whether a remembered slot may stand in for asking its
// shard now: the three rules at the top of this file.
func (a *Aggregator) usable(sl *memoSlot) bool {
	if sl.epoch == 0 {
		return false
	}
	c := a.Clients[sl.client]
	if c.epoch.Load() != sl.epoch || c.Broken() {
		return false
	}
	if b := a.breaker(sl.client); b != nil && b.State() != overload.Closed {
		return false
	}
	return c.depth.Load() == 0
}

// recallPredictions fills q.preds from the memo and returns the shards
// that still have to be asked, in order (nil on a full hit), with the
// outcome it counted the query under: "hit", "partial" or "miss". For the
// shards to ask it readies q.fresh — a copy of the entry it read — which
// the live legs patch and rememberPredictions stores.
func (a *Aggregator) recallPredictions(q *fanout, key string) (ask []int, outcome string) {
	slots := a.predMemo().get(key)
	for s := range q.preds {
		if slots != nil && a.usable(&slots[s]) {
			sl := &slots[s]
			a.fillPredSlot(&q.preds[s], s, sl.pred, a.replicaRow(s, sl.client), a.Clients[sl.client].lastLoad())
			continue
		}
		if ask == nil {
			ask = make([]int, 0, len(q.preds)-s)
		}
		ask = append(ask, s)
	}
	switch len(ask) {
	case 0:
		a.memoHits.Inc()
		return nil, "hit"
	case len(q.preds):
		a.memoMisses.Inc()
		outcome = "miss"
	default:
		a.memoPartial.Inc()
		outcome = "partial"
	}
	q.fresh = make([]memoSlot, len(q.preds))
	copy(q.fresh, slots)
	return ask, outcome
}

// rememberPredictions stores q.fresh once the live legs for q.ask are in —
// unless none of them answered, which left it the entry it was copied
// from. A shard whose leg failed keeps whatever slot it had.
func (a *Aggregator) rememberPredictions(q *fanout, key string) {
	for _, s := range q.ask {
		if q.preds[s].err == nil {
			if a.predMemo().put(key, q.fresh) {
				a.memoEvictions.Inc()
			}
			return
		}
	}
}

// fillPredSlot writes one shard's bare prediction into its slot of the
// prediction round — the report Algorithm 1 reads — whether the ISN just
// answered or the memo did. A prediction that matched nothing is a clean
// "no match": the zero slot.
func (a *Aggregator) fillPredSlot(sl *predSlot, shard int, p predict.Prediction, row int, load QueueInfo) {
	if !p.Matched {
		*sl = predSlot{}
		return
	}
	// Eq. 2 with the serving replica's own backlog, measured live, so
	// stage-1 cuts and the budget react to real load; replicas agree on
	// Q^K/Q^{K/2}. The live path applies no latency margin.
	queueMS := core.QueueBacklogMS(load.Depth, float64(load.AvgServiceUS)/1000)
	a.Params.Report(&sl.report, shard, p, 0, queueMS, row, a.Ladder)
	sl.ok, sl.err = true, nil
}
