package rpc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/obs"
	"cottage/internal/overload"
	"cottage/internal/qcache"
	"cottage/internal/replica"
	"cottage/internal/search"
)

// Aggregator coordinates a set of remote ISNs over the wire: it fans
// queries out, gathers predictions, runs Algorithm 1, and merges the
// responses that arrive within the budget — the network counterpart of
// the simulated engine.
type Aggregator struct {
	// Clients are the ISN connections, one per address. Each carries the
	// aggregator's per-replica facts that outlive a query: its epoch and
	// its quarantine bit (quarantine.go).
	Clients []*Client
	K       int
	// Ladder converts predicted cycles into the current/boosted
	// latencies Algorithm 1 compares. Remote DVFS is advisory here (the
	// demo processes share one machine), but the budget math is the real
	// thing.
	Ladder cluster.Ladder
	// Params are core.Cottage's calibrated cutoffs and degraded-mode
	// policy, applied the same way here as in the twin.
	core.Params
	// Hedge sends a duplicate search request on a fresh connection; the
	// first reply wins and the loser is cancelled. A leg's predictive
	// hedge signal is its Eq. 2-corrected LCurrent.
	Hedge cluster.Hedge
	// Anytime makes every budgeted search leg use the anytime traversal:
	// ISNs that would overrun the budget answer with an exact truncated
	// top-K and a score-bound certificate instead of erroring, and
	// Result.Truncated lists the shards that did. Set before use.
	Anytime bool
	// Breakers, when set (EnableBreakers), holds one circuit breaker per
	// client — per address, never per replica group, so a probe success
	// on one replica cannot half-close a sibling's breaker. An ISN with
	// an open breaker is skipped outright — counted as a missing
	// prediction and handled by degraded-mode Algorithm 1 — instead of
	// burning retry and hedge budget on a node that keeps failing. With
	// replica groups, "skipped" means the leg fails over to a sibling
	// first; only a whole group of open breakers degrades the shard.
	// Overload rejections never trip a breaker: a shedding ISN is busy,
	// not dead.
	Breakers []*overload.Breaker
	// Groups maps each logical shard to the client indices of its
	// replicas. NewAggregator makes client i shard i's only copy;
	// EnableReplicaGroups replaces the groups.
	Groups [][]int
	// Telemetry's traces also graft the ISN-side serve spans in.
	engine.Telemetry

	hedges           obs.Counter
	hedgeWins        obs.Counter
	hedgesCancelled  obs.Counter
	failoversPredict obs.Counter
	failoversSearch  obs.Counter
	memoHits         obs.Counter // Cottage queries that asked no shard,
	memoPartial      obs.Counter // some shards,
	memoMisses       obs.Counter // every shard
	memoEvictions    obs.Counter
	tracker          *replica.Tracker // per-client EWMA leg time (nil until EnableReplicaGroups)
	prober           *Prober
	legs             legPool // parked goroutines the per-shard legs run on
	memoOnce         sync.Once
	memo             *predMemo // remembered predictions (lazy; see predmemo.go)

	obsOnce                    sync.Once
	cottageHists, exhaustHists engine.QueryHists
}

// initObs registers the aggregator's metrics (idempotent, no-op without
// an observer). Hedge counters are adopted in place so Stats() and the
// registry read the same atomics.
func (a *Aggregator) initObs() {
	a.obsOnce.Do(func() {
		if a.Obs == nil {
			return
		}
		reg := a.Obs.Reg
		reg.Register("cottage_agg_hedges_total",
			"Hedged duplicate search requests issued.", &a.hedges)
		reg.Register("cottage_agg_hedge_wins_total",
			"Hedged requests that answered before the primary.", &a.hedgeWins)
		reg.Register("cottage_agg_hedges_cancelled_total",
			"Hedged requests torn down because the primary answered first.", &a.hedgesCancelled)
		reg.Register("cottage_agg_failovers_total",
			"Mid-query failovers to a sibling replica, by leg.",
			&a.failoversPredict, obs.L("leg", "predict"))
		reg.Register("cottage_agg_failovers_total",
			"Mid-query failovers to a sibling replica, by leg.",
			&a.failoversSearch, obs.L("leg", "search"))
		a.tracker.Register(reg)
		a.registerMemo(reg)
		reg.GaugeFunc("cottage_agg_client_retries",
			"Transport-level retries summed across all ISN clients.",
			func() float64 {
				var sum uint64
				for _, c := range a.Clients {
					sum += c.Retries()
				}
				return float64(sum)
			})
		a.cottageHists, a.exhaustHists = a.Hists("cottage"), a.Hists("exhaustive")
		for i, b := range a.Breakers {
			if b != nil {
				b.Register(reg, obs.L("isn", strconv.Itoa(i)))
			}
		}
	})
}

// EnableBreakers attaches a circuit breaker to every client: open after
// threshold consecutive transport failures, half-open probe after
// cooldown. Call before concurrent use.
func (a *Aggregator) EnableBreakers(threshold int, cooldown time.Duration) {
	a.Breakers = make([]*overload.Breaker, len(a.Clients))
	for i := range a.Breakers {
		a.Breakers[i] = overload.NewBreaker(threshold, cooldown, nil)
	}
}

// breaker returns ISN i's breaker, or nil when breakers are disabled.
func (a *Aggregator) breaker(i int) *overload.Breaker {
	if i >= len(a.Breakers) {
		return nil
	}
	return a.Breakers[i]
}

// observeBreaker feeds one call's outcome into ISN i's breaker.
func (a *Aggregator) observeBreaker(i int, err error) {
	b := a.breaker(i)
	if b == nil {
		return
	}
	switch {
	case err == nil:
		b.OnSuccess()
	case IsOverloaded(err):
		// Shed by admission control: the ISN answered, so the transport
		// is healthy. Neither a success (the work didn't run) nor a
		// failure (the node isn't sick) — the breaker doesn't move.
	case IsShardCorrupt(err):
		// The replica answered: transport healthy, data bad. Quarantine
		// (the client's quarantine bit), not the breaker, takes it out of
		// rotation — opening the breaker too would double-penalize and
		// misattribute a data fault as node death.
	case IsCorruptFrame(err):
		// Bytes were mangled in transit and *detected*: the peer is
		// alive and a fresh connection is expected to be clean. A lying
		// wire is not a dead node, so the breaker stays put.
	case IsTransient(err):
		b.OnFailure()
	default:
		// Application-level error: the server is up and talking.
		b.OnSuccess()
	}
}

// NewAggregator wires an aggregator over dialed clients, one shard per
// client: an unreplicated fleet is a set of singleton replica groups.
func NewAggregator(clients []*Client, k int) *Aggregator {
	ids := make([]int, len(clients))
	groups := make([][]int, len(clients))
	for i := range ids {
		ids[i] = i
		groups[i] = ids[i : i+1 : i+1]
	}
	return &Aggregator{
		Clients: clients,
		K:       k,
		Ladder:  cluster.DefaultLadder(),
		Params:  core.Params{DropZeroProb: 0.8, K2ZeroProb: 0.95},
		Groups:  groups,
	}
}

// Stats is the aggregator's operational ledger.
type Stats struct {
	// Hedges counts second requests issued; HedgeWins how many answered
	// before the primary; HedgesCancelled how many were torn down because
	// the primary answered first.
	Hedges, HedgeWins, HedgesCancelled uint64
	// FailoversPredict / FailoversSearch count mid-query retries on a
	// sibling replica, per leg kind.
	FailoversPredict, FailoversSearch uint64
	// Retries sums transport-level retries across all clients.
	Retries uint64
	// MemoHits counts Cottage queries that skipped the predict round (every
	// prediction remembered), MemoPartial those that asked only some
	// shards, MemoMisses those that asked them all.
	MemoHits, MemoPartial, MemoMisses uint64
}

// Stats snapshots the hedge/retry/memo counters.
func (a *Aggregator) Stats() Stats {
	s := Stats{
		Hedges:           a.hedges.Value(),
		HedgeWins:        a.hedgeWins.Value(),
		HedgesCancelled:  a.hedgesCancelled.Value(),
		FailoversPredict: a.failoversPredict.Value(),
		FailoversSearch:  a.failoversSearch.Value(),
		MemoHits:         a.memoHits.Value(),
		MemoPartial:      a.memoPartial.Value(),
		MemoMisses:       a.memoMisses.Value(),
	}
	for _, c := range a.Clients {
		s.Retries += c.Retries()
	}
	return s
}

// Result is a distributed query's outcome.
type Result struct {
	Hits     []search.Hit
	BudgetMS float64
	Cut      []int
	Elapsed  time.Duration
	// Filing's Selected, Failed and Truncated say how each shard's leg
	// ended; exhaustive search lists only the shards that answered as
	// Selected.
	engine.Filing
	// Predicted lists the shards SearchCottage asked for a prediction;
	// the others' came out of the prediction memo. Empty when the predict
	// round was skipped.
	Predicted []int
	// TraceID identifies the query's recorded trace (0 when the
	// aggregator has no observer); look it up in /debug/traces.
	TraceID uint64
}

// nowUS is the span clock for the live path.
func nowUS() int64 { return time.Now().UnixMicro() }

// hedgeFor returns the hedge timer for one shard's search leg, whose
// live hedge signal is its predicted queue-inclusive latency: 0 hedges
// at dispatch, -1 never.
func (a *Aggregator) hedgeFor(predLCurrentMS float64, havePred bool) time.Duration {
	ms := a.Hedge.DelayMS(predLCurrentMS, havePred)
	if ms < 0 {
		return -1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// searchHedged runs one ISN's search leg, optionally hedging it with a
// duplicate request on a fresh connection after hedgeAfter (0 =
// duplicate immediately — predictive mode's flagged straggler; < 0 =
// never hedge). The fresh connection matters: a request queued behind
// a stuck stream on the shared client would inherit exactly the delay
// the hedge is trying to escape. Server-side spans from whichever leg
// won come back for grafting, and l records what the hedging did — the
// phase-attribution input: a won hedge's timer wait sat on the query's
// critical path.
func (a *Aggregator) searchHedged(l *engine.Leg, isn int, sc obs.SpanContext, terms []string, deadline, hedgeAfter time.Duration) (search.Result, []obs.Span, error) {
	l.Hedged, l.HedgeWaitMS = false, 0
	primary := a.Clients[isn]
	if hedgeAfter < 0 || primary.Addr() == "" {
		return primary.searchCall(sc, terms, a.K, deadline, a.Anytime)
	}
	type outcome struct {
		r     search.Result
		spans []obs.Span
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2) // buffered: abandoned legs must not leak
	go func() {
		r, spans, err := primary.searchCall(sc, terms, a.K, deadline, a.Anytime)
		ch <- outcome{r, spans, err, false}
	}()

	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	var hedge *Client
	inflight := 1
	hedgeDone := false

	var first outcome
	select {
	case first = <-ch:
		inflight--
	case <-timer.C:
		if hc, err := Dial(primary.Addr()); err == nil {
			hedge = hc
			hc.SetTimeout(primary.timeout)
			a.hedges.Inc()
			l.Hedged = true
			inflight++
			go func() {
				r, spans, err := hc.searchCall(sc, terms, a.K, deadline, a.Anytime)
				ch <- outcome{r, spans, err, true}
			}()
		}
		first = <-ch
		inflight--
	}
	hedgeDone = hedgeDone || first.hedge

	if first.err != nil && inflight > 0 {
		// The fast leg failed; the slow one may still deliver.
		second := <-ch
		inflight--
		hedgeDone = hedgeDone || second.hedge
		if second.err == nil {
			first = second
		}
	}
	if hedge != nil {
		if !hedgeDone {
			// Primary won while the hedge is still in flight: closing the
			// hedge's private connection cancels it server-side. (When the
			// hedge wins, the primary's late reply is consumed and
			// discarded by its own still-blocked call.)
			a.hedgesCancelled.Inc()
		}
		hedge.Close()
	}
	if first.err == nil && first.hedge {
		a.hedgeWins.Inc()
		l.HedgeWaitMS = float64(hedgeAfter.Microseconds()) / 1000
	}
	return first.r, first.spans, first.err
}

// finishQuery is every exit's last step, whatever the query came to:
// it stamps the elapsed time, ends the trace's root span and hands the
// query to the shared finish. Quality is degraded when any shard's hits
// are missing (failed) or truncated; failed marks a query that returned
// an error instead of an answer.
func (a *Aggregator) finishQuery(q *fanout, root *obs.ActiveSpan, res *Result, h engine.QueryHists, start time.Time, failed bool) {
	res.Elapsed = time.Since(start)
	root.End(nowUS())
	res.TraceID = a.FinishQuery(h, q.tb, float64(res.Elapsed.Microseconds())/1000, res.BudgetMS,
		failed, len(res.Failed)+len(res.Truncated) > 0)
}

// fanout is the state one query shares with its per-shard legs: what
// the legs read (the query, the trace they record under) and one result
// slot per leg, so a round needs no lock — each leg writes only its own
// slot and the query goroutine reads them after the round's Wait.
type fanout struct {
	a      *Aggregator
	tb     *obs.TraceBuilder
	parent *obs.ActiveSpan // the round's span; legs hang under it
	terms  []string
	wg     sync.WaitGroup

	// Prediction round, one slot per shard. Leg i asks shard ask[i] and
	// leaves the answer in fresh for the memo as well; the shards not in
	// ask had their slot filled from the memo.
	preds []predSlot
	ask   []int
	fresh []memoSlot
	// Search round, one slot per leg: leg i searches selected[i].ISN, or
	// shard i when selected is nil (exhaustive mode).
	selected []core.Assignment
	deadline time.Duration
	legs     []engine.Leg
}

// predSlot is one shard's prediction-round outcome. ok marks a shard
// that answered and matched the query; err a shard whose whole replica
// group failed. Neither set is a clean "no match".
type predSlot struct {
	report core.ISNReport
	ok     bool
	err    error
}

// round runs fn(q, 0..n-1) concurrently, one pooled goroutine per leg,
// and waits for all of them.
func (q *fanout) round(n int, fn func(*fanout, int)) {
	q.wg.Add(n)
	for i := 0; i < n; i++ {
		q.a.legs.run(leg{fn: fn, q: q, i: i})
	}
	q.wg.Wait()
}

// predictLeg gathers shard ask[li]'s prediction into its slot. The whole
// replica group answers one leg: the best live replica first, siblings
// on failover. Only a group-wide failure (every breaker open, every
// replica erroring) leaves the shard a missing prediction for
// degraded-mode Algorithm 1. An answer is remembered only if the
// serving client's epoch held still across the round trip: one that
// cannot be pinned to one epoch is used for this query alone.
func (q *fanout) predictLeg(li int) {
	a, s := q.a, q.ask[li]
	err := q.failover(s, "predict.isn", &a.failoversPredict, 0, func(sp *obs.ActiveSpan, ci, row, sent int, _ time.Duration) error {
		sp.SetISN(s)
		sp.SetAttr("replica", strconv.Itoa(row))
		if sent > 0 {
			sp.SetAttr("failover", strconv.Itoa(sent))
		}
		c := a.Clients[ci]
		epoch := c.epoch.Load()
		p, load, spans, err := c.PredictLoadSpan(sp.Context(), q.terms)
		if err != nil {
			return err
		}
		q.graft(s, spans)
		sp.End(nowUS())
		q.preds[s] = a.predSlotFor(s, p, row, load)
		if c.epoch.Load() == epoch {
			q.fresh[s] = memoSlot{pred: p, client: ci, epoch: epoch}
		}
		return nil
	})
	if err != nil {
		q.preds[s].err = fmt.Errorf("shard %d predict: %w", s, err)
	}
}

// searchLeg runs leg li's search into its slot, failing over within
// the shard's replica group before giving up; each attempt may itself
// hedge (searchHedged). Predictive hedging reads the shard's
// queue-corrected latency prediction: a leg already expected to
// straggle gets its duplicate at dispatch, the rest are never hedged.
// Each abandoned attempt keeps a span of its own; the answering one is
// written by Leg.Annotate.
func (q *fanout) searchLeg(li int) {
	a, l := q.a, &q.legs[li]
	l.Shard = li
	if q.selected != nil {
		l.Shard = q.selected[li].ISN
		p := &q.preds[l.Shard]
		l.Pred = engine.LegPred{OK: p.ok, LatencyMS: p.report.LCurrent, HasK: p.report.HasK}
	}
	s, hedge := l.Shard, a.hedgeFor(l.Pred.LatencyMS, l.Pred.OK)
	err := q.failover(s, "search.isn", &a.failoversSearch, q.deadline, func(sp *obs.ActiveSpan, ci, row, sent int, remaining time.Duration) error {
		start := time.Now()
		r, spans, err := a.searchHedged(l, ci, sp.Context(), q.terms, remaining, hedge)
		if err != nil {
			lost := engine.Leg{Shard: s, Replica: row, Failovers: sent, Status: cluster.LegFailed}
			lost.Annotate(sp)
			return err
		}
		q.graft(s, spans)
		l.Client, l.Replica, l.Failovers = ci, row, sent
		l.Hits = r.Hits
		if r.Terminated {
			l.Status, l.ScoreBound = cluster.LegTruncated, r.ScoreBound
		}
		l.QueueMS, l.ServiceMS = serveSplit(spans, sp.ID())
		l.Annotate(sp)
		sp.End(nowUS())
		l.ActualMS = float64(time.Since(start).Microseconds()) / 1000
		a.tracker.Observe(ci, l.ActualMS)
		return nil
	})
	if err != nil {
		l.Status, l.Client, l.Err = cluster.LegFailed, -1, fmt.Errorf("shard %d: %w", s, err)
	}
}

// searchRound is steps 5–7 of both protocols: n search legs under the
// query's "search" span, one per selected shard (every shard when
// q.selected is nil), then the shared gather under the "merge" span. A
// leg that fails (straggler or group-wide failure) loses its hits but
// the query survives: its shard joins res.Failed. An anytime leg that
// hit the budget answered exact-but-partial hits: its shard joins
// res.Truncated, and rec when tracing. Each leg's own prediction is
// scored against the merged answer.
func (q *fanout) searchRound(root *obs.ActiveSpan, n int, res *Result, rec *obs.DecisionRecord) {
	span := q.tb.StartSpan("search", root.ID(), nowUS())
	q.parent = span
	q.legs = make([]engine.Leg, n)
	q.round(n, (*fanout).searchLeg)
	span.End(nowUS())
	span = q.tb.StartSpan("merge", root.ID(), nowUS())
	var out engine.Outcome
	res.Hits = engine.Gather(q.a.K, q.legs, rec, q.a.Accuracy(), nil, &out, &res.Filing, nil)
	span.End(nowUS())
}

// startQuery opens a query's trace (nil builder and spans without an
// observer) and its fan-out state.
func (a *Aggregator) startQuery(mode string, terms []string, start time.Time) (*fanout, *obs.ActiveSpan) {
	a.initObs()
	q := &fanout{a: a, terms: terms}
	if a.Obs == nil {
		return q, nil
	}
	q.tb = obs.NewTraceBuilder(start.UnixMicro())
	root := q.tb.StartSpan("query", 0, start.UnixMicro())
	root.SetAttr("mode", mode)
	root.SetAttr("terms", strings.Join(terms, " "))
	return q, root
}

// SearchExhaustive queries every ISN with no budget and merges. Failed
// ISNs degrade the result (reported in Result.Failed) rather than failing
// the query; an error is returned only when every ISN fails.
func (a *Aggregator) SearchExhaustive(terms []string) (Result, error) {
	start := time.Now()
	q, root := a.startQuery("exhaustive", terms, start)
	var res Result
	q.searchRound(root, a.Shards(), &res, nil)
	if len(res.Failed) == len(q.legs) {
		root.SetAttr("error", "all shards failed")
		a.finishQuery(q, root, &res, a.exhaustHists, start, true)
		errs := make([]error, len(q.legs))
		for s := range q.legs {
			errs[s] = q.legs[s].Err
		}
		return Result{}, fmt.Errorf("rpc: all %d shards failed: %w", len(q.legs), errors.Join(errs...))
	}
	if len(res.Failed) > 0 {
		res.Selected = slices.DeleteFunc(res.Selected, func(s int) bool { return slices.Contains(res.Failed, s) })
	}
	a.finishQuery(q, root, &res, a.exhaustHists, start, false)
	return res, nil
}

// SearchCottage runs the full coordinated protocol: predict everywhere,
// determine the budget, search the selected ISNs with the budget as a
// deadline, and merge what returns. ISNs that fail either leg degrade
// the result (Result.Failed) instead of failing the query; prediction
// failures additionally feed Algorithm 1's degraded mode (a.Degraded).
//
// "Predict everywhere" asks only the shards whose answer to these terms
// the prediction memo does not hold (predmemo.go): a repeated query's
// predict round is empty, and everything downstream of it is unchanged.
//
// With an observer attached, every query records a trace — root span
// with predict/budget/search/merge children, per-ISN legs, the grafted
// ISN-side serve spans, and the Algorithm 1 decision record on the
// budget span — and feeds the predictor-accuracy tracker with each
// selected ISN's predicted vs. measured latency and top-K contribution.
func (a *Aggregator) SearchCottage(terms []string) (Result, error) {
	start := time.Now()
	q, root := a.startQuery("cottage", terms, start)
	tb := q.tb

	// Steps 2-3: gather predictions in parallel. A failed prediction
	// (crash, timeout) is not the same as a clean "no match": the former
	// leaves the aggregator blind about a live shard and must flow into
	// the degraded-mode budget, the latter is an answered question.
	predictSpan := tb.StartSpan("predict", root.ID(), nowUS())
	shards := a.Shards()
	q.parent = predictSpan
	q.preds = make([]predSlot, shards)
	key := qcache.Key(terms)
	var memo string
	q.ask, memo = a.recallPredictions(q, key)
	predictSpan.SetAttr("memo", memo)
	if len(q.ask) > 0 {
		q.round(len(q.ask), (*fanout).predictLeg)
		a.rememberPredictions(q, key)
	}
	predictSpan.End(nowUS())

	res := Result{Predicted: q.ask}
	preds := make([]core.ISNReport, 0, shards)
	var missing []int
	for s := range q.preds {
		if q.preds[s].err != nil {
			missing = append(missing, s)
			res.Failed = append(res.Failed, s)
		} else if q.preds[s].ok {
			preds = append(preds, q.preds[s].report)
		}
	}
	if len(missing) == shards {
		root.SetAttr("error", "all predictions failed")
		a.finishQuery(q, root, &res, a.cottageHists, start, true)
		predErrs := make([]error, shards)
		for s := range q.preds {
			predErrs[s] = q.preds[s].err
		}
		return Result{}, fmt.Errorf("rpc: all %d shards failed prediction: %w",
			len(missing), errors.Join(predErrs...))
	}

	// Step 4: time budget determination, degraded if predictions are
	// missing.
	budgetSpan := tb.StartSpan("budget", root.ID(), nowUS())
	budget, rec := a.Params.Budget(preds, missing, a.Ladder, core.BudgetOptions{}, a.Obs != nil)
	budgetSpan.SetDecision(rec)
	budgetSpan.End(nowUS())
	res.BudgetMS = budget.BudgetMS
	res.Cut = budget.Cut
	if len(budget.Selected) > 0 {
		// Steps 5-7: budget-bounded search on the selected shards.
		q.selected = budget.Selected
		q.deadline = time.Duration(budget.BudgetMS * float64(time.Millisecond))
		q.searchRound(root, len(budget.Selected), &res, rec)
	}
	a.finishQuery(q, root, &res, a.cottageHists, start, false)
	return res, nil
}
