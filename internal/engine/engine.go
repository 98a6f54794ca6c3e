// Package engine assembles the full distributed search system: index
// shards on a simulated ISN cluster behind an aggregator, driven by a
// pluggable ISN-selection/time-budget policy. It implements the paper's
// seven-step coordination protocol (Fig. 5) generically:
//
//  1. broadcast the query,
//  2. per-ISN quality/latency prediction (policies that use it),
//  3. predictions return to the aggregator,
//  4. the policy decides participants, frequencies and the time budget,
//  5. the decision is broadcast,
//  6. participating ISNs execute within the budget,
//  7. responses are merged; stragglers are dropped.
//
// Per-query retrieval work is real (the shards and query evaluator are
// real); time and power are simulated (internal/cluster). The engine
// separates the policy-independent evaluation of a query (what documents
// match, how much work it costs — Evaluate) from the policy-dependent
// replay (Run), so the experiment harness evaluates each trace once and
// replays it under every policy.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"

	"cottage/internal/autoscale"
	"cottage/internal/cluster"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/par"
	"cottage/internal/predict"
	"cottage/internal/qcache"
	"cottage/internal/search"
	"cottage/internal/stats"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// Engine is one deployment: shards + cluster + predictors.
type Engine struct {
	Shards  []*index.Shard
	Cluster *cluster.Cluster
	// Fleet holds the trained per-ISN predictors; nil until TrainFleet
	// (baselines that do not predict still work).
	Fleet *predict.Fleet
	// Gamma is the Taily-style estimator over the same shards.
	Gamma *predict.GammaEstimator
	// K is the client-side result count (P@K evaluation).
	K int
	// Strategy is the per-ISN evaluation algorithm.
	Strategy search.Strategy
	// Anytime converts budget-miss drops into truncated answers: when a
	// shard's execution is cut off at the deadline, the engine replays
	// the anytime traversal under the fraction of the cycle budget the
	// node actually spent (Execution.WorkFrac) and merges the truncated,
	// quality-bounded hits instead of discarding the shard. Run copies
	// the flag to the cluster so admission control matches.
	Anytime bool
	// Cache, when set, answers repeated queries at the aggregator without
	// touching any ISN (qcache.LRU). Cached answers cost only the client
	// round trip plus a lookup; misses follow the configured policy and
	// populate the cache.
	Cache *qcache.LRU[[]search.Hit]
	// Telemetry makes the simulated twin report the same observability
	// surface as the live transport, on the virtual clock — so harness
	// sweeps validate the instrumentation itself.
	Telemetry
	// Scaler, when set, closes the autoscaling loop during Run: every
	// arrival feeds its rate estimator, completed legs feed per-shard
	// service EWMAs, and on each cadence tick the controller's plan is
	// applied to the cluster's active replica rows. The cluster should
	// be built with DynamicMachines so scale-downs show up in power and
	// machine time. A scaled run starts with one active replica per
	// shard: the controller earns its capacity.
	Scaler *autoscale.Controller
	// Hedge sends a duplicate of a leg to a sibling replica. A leg's
	// predictive hedge signal is Eq. 2 over the policy's
	// Decision.PredCycles plus the serving replica's latency defect; legs
	// without a prediction never hedge.
	Hedge cluster.Hedge

	hists QueryHists // the current Run's, resolved at its start
	run   runTrace   // the current Run's trace; zero outside Run
	// runOne's scratch: one query's legs, the execution each leg is read
	// from, its merge, and the storage its policy decides in
	// (DecisionBuffers).
	legs     []Leg
	exec     cluster.Execution
	merge    MergeBuf
	decision DecisionBuffers
}

// runTrace is what Predictions knows about the Run in progress: the
// replayed trace, the position of the query being replayed, and — once a
// policy has asked — every query's predictions.
type runTrace struct {
	evs   []*Evaluated
	at    int
	preds [][]predict.Prediction
}

// Config assembles an Engine.
type Config struct {
	NumShards int
	K         int
	Strategy  search.Strategy
	Cluster   cluster.Config
	BM25      index.BM25Params
}

// DefaultConfig mirrors the paper's deployment: 16 ISNs, P@10, and a
// dynamically-pruned (MaxScore) production engine.
func DefaultConfig() Config {
	cc := cluster.DefaultConfig()
	return Config{
		NumShards: 16,
		K:         10,
		Strategy:  search.StrategyMaxScore,
		Cluster:   cc,
		BM25:      index.DefaultBM25(),
	}
}

// BuildShards indexes a synthetic corpus into cfg.NumShards shards using
// a topical allocation (the layout selective-search systems are designed
// for; see textgen.AllocateTopical): two home shards per topic, 15 % of
// documents spilled elsewhere.
func BuildShards(corpus *textgen.Corpus, cfg Config, seed uint64) []*index.Shard {
	alloc := corpus.AllocateTopical(cfg.NumShards, 2, 0.15, seed)
	return BuildFromAllocation(corpus, alloc, cfg)
}

// BuildShardsRoundRobin indexes with source-order allocation, for
// contrast experiments.
func BuildShardsRoundRobin(corpus *textgen.Corpus, cfg Config) []*index.Shard {
	return BuildFromAllocation(corpus, corpus.AllocateRoundRobin(cfg.NumShards), cfg)
}

// BuildFromAllocation indexes alloc[si]'s documents of corpus into shard
// si, in the order listed, building the shards in parallel. The shards
// are the same bytes whatever the number of cores.
func BuildFromAllocation(corpus *textgen.Corpus, alloc [][]int, cfg Config) []*index.Shard {
	shards := make([]*index.Shard, len(alloc))
	par.For(len(alloc), func(si int) {
		b := index.NewBuilder(si, cfg.BM25, cfg.K)
		for _, id := range alloc[si] {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
		}
		shards[si] = b.Finalize()
	})
	return shards
}

// New assembles an engine over pre-built shards.
func New(shards []*index.Shard, cfg Config) *Engine {
	if len(shards) == 0 {
		panic("engine: no shards")
	}
	cfg.Cluster.NumISNs = len(shards)
	return &Engine{
		Shards:   shards,
		Cluster:  cluster.New(cfg.Cluster),
		Gamma:    &predict.GammaEstimator{Shards: shards},
		K:        cfg.K,
		Strategy: cfg.Strategy,
	}
}

// TrainFleet harvests ground truth from training queries and fits the
// per-ISN predictors.
func (e *Engine) TrainFleet(trainQueries []trace.Query, pcfg predict.Config) (*predict.Dataset, error) {
	ds := predict.Harvest(e.Shards, trainQueries, e.K, e.Strategy, e.Cluster.Cost)
	// Scale harvested service costs by each ISN's speed factor so the
	// per-ISN latency models learn the node they actually run on
	// (heterogeneous fleets).
	for isn := range ds.PerISN {
		sf := e.Cluster.ISNs[isn].SpeedFactor
		if sf == 1 {
			continue
		}
		for qi := range ds.PerISN[isn] {
			ds.PerISN[isn][qi].Cycles *= sf
		}
	}
	fleet, err := predict.Train(ds, pcfg)
	if err != nil {
		return nil, fmt.Errorf("engine: training fleet: %w", err)
	}
	e.Fleet = fleet
	return ds, nil
}

// Evaluated is the policy-independent part of one query: every shard's
// full top-K response and work, plus the merged ground truth.
type Evaluated struct {
	Query    trace.Query
	PerShard []search.Result
	// Cycles[i] is shard i's measured service cost at the reference
	// strategy.
	Cycles []float64
	// TopK is the global ground-truth top-K (what exhaustive search
	// returns).
	TopK []search.Hit
}

// evaluate is Evaluate with an explicit cap on the per-shard fan-out.
// Shards are immutable during evaluation, EffectiveCycles is a pure read,
// and every write lands in slot si, so any worker count produces the same
// Evaluated bit for bit.
func (e *Engine) evaluate(q trace.Query, shardWorkers int) *Evaluated {
	ev := &Evaluated{
		Query:    q,
		PerShard: make([]search.Result, len(e.Shards)),
		Cycles:   make([]float64, len(e.Shards)),
	}
	par.ForMax(len(e.Shards), shardWorkers, func(si int) {
		ev.PerShard[si] = search.Eval(e.Strategy, e.Shards[si], q.Terms, e.K)
		ev.Cycles[si] = e.Cluster.EffectiveCycles(si, e.Cluster.Cost.Cycles(ev.PerShard[si].Stats))
	})
	// Every replay merges these lists, so they are moved into one backing
	// array, each view capped at its own end; an empty list stays nil.
	total := 0
	for si := range ev.PerShard {
		total += len(ev.PerShard[si].Hits)
	}
	hits := make([]search.Hit, 0, total+e.K)
	lists := make([][]search.Hit, len(e.Shards))
	for si := range ev.PerShard {
		if h := ev.PerShard[si].Hits; len(h) > 0 {
			off := len(hits)
			hits = append(hits, h...)
			ev.PerShard[si].Hits = hits[off:len(hits):len(hits)]
		}
		lists[si] = ev.PerShard[si].Hits
	}
	// The top K goes right after the lists in the same array: a replay
	// reads it (pAtK) just after merging the lists, so it is on the
	// cache lines the merge has brought in, or the next ones.
	ev.TopK = search.MergeInto(hits[len(hits):], e.K, lists...)
	return ev
}

// Evaluate runs the query on every shard — fanned out across CPUs, like
// the real aggregator's scatter phase — and merges ground truth.
func (e *Engine) Evaluate(q trace.Query) *Evaluated {
	return e.evaluate(q, runtime.GOMAXPROCS(0))
}

// EvaluateAll evaluates a whole trace (the expensive, policy-independent
// pass — do it once and replay it under many policies). Queries are
// evaluated in parallel across CPUs; shards are immutable and the result
// slice is index-addressed, so the output is deterministic. The per-query
// shard fan-out stays serial here — the query-level fan-out already
// saturates the CPUs, and nesting would only add scheduling churn.
func (e *Engine) EvaluateAll(qs []trace.Query) []*Evaluated {
	out := make([]*Evaluated, len(qs))
	par.For(len(qs), func(i int) {
		out[i] = e.evaluate(qs[i], 1)
	})
	return out
}

// Decision is a policy's verdict for one query.
type Decision struct {
	// Participate[i] marks ISN i as selected; unselected ISNs do no work.
	Participate []bool
	// Freq[i] is the DVFS frequency for ISN i (ignored when not
	// participating). Zero means the ladder default.
	Freq []float64
	// BudgetMS is the relative deadline from dispatch; +Inf means the
	// aggregator waits for every participant.
	BudgetMS float64
	// CoordMS is coordination overhead before dispatch (prediction round
	// trips, optimizer time) added to the query's critical path.
	CoordMS float64
	// UsedPredictors charges every ISN the predictor inference cost
	// (energy + queue occupancy), whether or not it participates — the
	// prediction step runs on all ISNs (step 2 of the protocol).
	UsedPredictors bool
	// Record, when the policy provides it (Cottage does, with an
	// observer attached), is the Algorithm 1 audit trail for this query;
	// the engine attaches it to the trace's budget span.
	Record *obs.DecisionRecord
	// PredCycles, when the policy predicts per-shard work (Cottage
	// does), carries the margined cycle predictions indexed by shard
	// (zero for shards without a prediction). The engine's predictive
	// hedging combines them with live queue state to flag straggler
	// legs at dispatch; nil for baselines that do not predict.
	PredCycles []float64
}

// DecisionBuffers is storage a Policy may build its Decision in instead
// of allocating per query. The engine replays one query at a time, so a
// Decision built here is valid until the next Decide on the same engine;
// a policy that keeps a Decision's slices across queries must allocate
// its own.
type DecisionBuffers struct {
	Participate []bool
	Freq        []float64
	PredCycles  []float64
	// Policy is the deciding policy's own per-query scratch, kept here
	// for it and never read by the engine (core keeps Algorithm 1's
	// buffers in it).
	Policy any
}

// DecisionBuffers returns the engine's decision storage with
// Participate, Freq and PredCycles zeroed, one slot per shard.
func (e *Engine) DecisionBuffers() *DecisionBuffers {
	b := &e.decision
	if n := len(e.Shards); len(b.Participate) != n {
		b.Participate, b.Freq, b.PredCycles = make([]bool, n), make([]float64, n), make([]float64, n)
	} else {
		clear(b.Participate)
		clear(b.Freq)
		clear(b.PredCycles)
	}
	return b
}

// Policy decides, per query, which ISNs run, at what frequency, and under
// what time budget. Implementations must only use information available
// to a real aggregator: the query terms, index statistics, predictions,
// and cluster queue state — never the Evaluated ground truth.
type Policy interface {
	Name() string
	Decide(e *Engine, q trace.Query, nowMS float64) Decision
}

// observer is the optional half of a Policy: an adaptive policy
// (epoch-based aggregation) hears the client latency of every query it
// decided, cache hits included.
type observer interface{ Observe(latencyMS float64) }

// observe feeds a finished query's latency to p if p adapts to it.
func observe(p Policy, latencyMS float64) {
	if o, ok := p.(observer); ok {
		o.Observe(latencyMS)
	}
}

// Outcome is one query's result under a policy.
type Outcome struct {
	QueryID    int
	ArrivalMS  float64
	LatencyMS  float64
	PAtK       float64
	ActiveISNs int
	// DocsSearched is C_RES: documents scored across participating ISNs.
	DocsSearched int
	// DroppedISNs counts participants whose responses missed the budget.
	DroppedISNs int
	// TruncatedISNs counts participants that missed the budget but still
	// contributed a truncated anytime answer (engine.Anytime): their hits
	// are exact, just possibly incomplete, with a recorded score bound.
	TruncatedISNs int
	// FailedISNs counts participants that were dead when dispatched to
	// (injected failures): no work done, no response, contribution lost.
	FailedISNs int
	// ShedISNs counts participants whose admission control rejected the
	// request (queue over MaxQueueMS): the aggregator got an immediate
	// rejection, so — unlike a failure — no timeout is burned, but the
	// shard's contribution is lost.
	ShedISNs int
	// CorruptISNs counts participants whose whole replica group bounced
	// the request on integrity grounds (quarantined copies, fresh rot
	// tripping the query-time checksum gate): typed rejections, so the
	// aggregator hears back after one hop — like Shed — but the shard's
	// contribution is lost. Single bounces that a sibling absorbed show
	// up in Failovers, not here.
	CorruptISNs int
	// Failovers counts mid-query replica failovers across all legs: how
	// many times a leg's first-choice replica lost the request (crash,
	// drop, shed, integrity bounce) and a sibling absorbed the retry.
	Failovers int
	// HedgedISNs counts legs that sent a duplicate to a sibling replica;
	// HedgeWonISNs counts those where the duplicate's response arrived
	// first. DuplicateMS is the busy time the losing copies burned —
	// the waste side of the hedging trade.
	HedgedISNs   int
	HedgeWonISNs int
	DuplicateMS  float64
	BudgetMS     float64
}

// RunResult aggregates a full trace replay under one policy.
type RunResult struct {
	Policy     string
	Outcomes   []Outcome
	AvgPowerW  float64
	DurationMS float64
	// CacheHitRate is the aggregator cache's hit rate for this run
	// (zero when no cache is configured).
	CacheHitRate float64
	// MachineMS is the fleet's integrated machine time in node·ms —
	// horizon × nodes on a static fleet, the actual powered-on integral
	// under autoscaling.
	MachineMS float64
	// TotalBusyMS is the summed busy time across all nodes (includes
	// hedging duplicates), the denominator for duplicate-work fractions.
	TotalBusyMS float64
	// ScaleLog is the autoscaler's decision trail for this run (nil
	// without a Scaler) — what the determinism tests compare.
	ScaleLog []autoscale.Change
}

// Run replays evaluated queries under policy p. The cluster (and cache,
// if any) is reset first, so results of consecutive runs are independent.
func (e *Engine) Run(p Policy, evs []*Evaluated) RunResult {
	e.Cluster.Reset()
	e.Cluster.Anytime = e.Anytime
	if e.Cache != nil {
		e.Cache.Reset()
	}
	if e.Scaler != nil {
		e.Scaler.Reset()
		e.Cluster.SetAllActiveReplicas()
	}
	e.hists = e.Hists(p.Name())
	if e.Obs != nil {
		e.Cluster.Register(e.Obs.Reg) // idempotent: create-or-get
	}
	res := RunResult{Policy: p.Name(), Outcomes: make([]Outcome, len(evs))}
	e.run = runTrace{evs: evs}
	defer func() { e.run = runTrace{} }()
	for i, ev := range evs {
		e.run.at = i
		e.runOne(&res.Outcomes[i], p, ev)
	}
	res.DurationMS = e.Cluster.NowMS()
	res.AvgPowerW = e.Cluster.AveragePowerWatts()
	res.MachineMS = e.Cluster.MachineMS()
	for _, n := range e.Cluster.ISNs {
		res.TotalBusyMS += n.BusyMS
	}
	if e.Cache != nil {
		res.CacheHitRate = e.Cache.HitRate()
	}
	if e.Scaler != nil {
		res.ScaleLog = append([]autoscale.Change(nil), e.Scaler.Log()...)
	}
	return res
}

// Predictions returns every ISN's prediction for q (steps 2–3 of the
// protocol), for policies that predict. Inside Run, the first call
// predicts the whole replayed trace at once with Fleet.PredictTrace,
// which runs each distinct query of the trace once and keeps one ISN's
// weights in cache across all of its queries, and every later call for
// the query being replayed reads its row. The fill is lazy, so a policy
// that never asks never pays, and the table is dropped when Run returns:
// each distinct query is predicted once per replay, and nothing is kept
// across Run. Any other call — outside Run, or for a query that is not
// the one being replayed — runs Fleet.PredictAll. Both give the same
// bits. Callers must not modify the returned slice, which repeated
// queries share.
func (e *Engine) Predictions(q trace.Query) []predict.Prediction {
	r := &e.run
	if r.at < len(r.evs) && r.evs[r.at].Query.ID == q.ID && slices.Equal(r.evs[r.at].Query.Terms, q.Terms) {
		if r.preds == nil {
			terms := make([][]string, len(r.evs))
			for i, ev := range r.evs {
				terms[i] = ev.Query.Terms
			}
			r.preds = e.Fleet.PredictTrace(e.Shards, terms)
		}
		return r.preds[r.at]
	}
	return e.Fleet.PredictAll(e.Shards, q.Terms)
}

// cacheLookupMS is the aggregator-side cost of a cache probe.
const cacheLookupMS = 0.02

// runOne replays one query under p and writes its outcome into out,
// every field.
func (e *Engine) runOne(out *Outcome, p Policy, ev *Evaluated) {
	arrive := ev.Query.ArrivalMS + e.Cluster.Net.ClientMS // at aggregator
	*out = Outcome{}
	out.QueryID, out.ArrivalMS = ev.Query.ID, ev.Query.ArrivalMS
	if e.Cache != nil {
		key := qcache.Key(ev.Query.Terms)
		if hits, ok := e.Cache.Get(key); ok {
			out.LatencyMS = 2*e.Cluster.Net.ClientMS + cacheLookupMS
			out.PAtK = pAtK(hits, ev)
			// A single query root, no fan-out: no phases to attribute.
			tb, root := e.startTrace(p, ev)
			root.SetAttr("cache", "hit")
			root.End(vtUS(ev.Query.ArrivalMS + out.LatencyMS))
			e.FinishQuery(e.hists, tb, out.LatencyMS, 0, false, false)
			observe(p, out.LatencyMS)
			return
		}
	}
	if e.Scaler != nil {
		e.Scaler.RecordArrival()
		if e.Scaler.Due(arrive) {
			qd := make([]float64, len(e.Shards))
			for si := range e.Shards {
				qd[si] = e.Cluster.ShardQueueDelayMS(si, arrive)
			}
			for _, ch := range e.Scaler.Replan(arrive, qd) {
				e.Cluster.SetActiveReplicas(ch.Shard, ch.To, arrive)
			}
		}
	}
	d := p.Decide(e, ev.Query, arrive)
	if len(d.Participate) != len(e.Shards) {
		panic(fmt.Sprintf("engine: policy %s sized Participate %d for %d shards",
			p.Name(), len(d.Participate), len(e.Shards)))
	}
	if d.UsedPredictors {
		e.chargeInference()
	}
	dispatch := arrive + d.CoordMS
	deadline := math.Inf(1)
	if !math.IsInf(d.BudgetMS, 1) {
		deadline = dispatch + d.BudgetMS
	}

	out.BudgetMS = d.BudgetMS
	// A dead participant never answers: the aggregator gives up on it at
	// the budget, or — with no budget — at its failure-detection timeout.
	giveup := deadline
	if math.IsInf(giveup, 1) {
		giveup = dispatch + cluster.FailTimeoutMS
	}
	legs := e.legs[:0]
	if cap(legs) < len(e.Shards) {
		legs = make([]Leg, 0, len(e.Shards))
	}
	exec := &e.exec
	aggDone := dispatch
	for si := range e.Shards {
		if !d.Participate[si] {
			continue
		}
		f := e.Cluster.Ladder.Default()
		if d.Freq != nil && d.Freq[si] > 0 {
			f = d.Freq[si]
		}
		predMS, havePred := 0.0, false
		if e.Hedge.Predictive && d.PredCycles != nil && d.PredCycles[si] > 0 {
			predMS, havePred = e.Cluster.ShardPredictedLegMS(si, dispatch, d.PredCycles[si], f), true
		}
		hedgeDelay := e.Hedge.DelayMS(predMS, havePred)
		hr := e.Cluster.ExecuteShardHedged(exec, si, dispatch, ev.Cycles[si], f, deadline, hedgeDelay)
		if hr.Hedged {
			out.HedgedISNs++
			if hr.Won {
				out.HedgeWonISNs++
			}
			out.DuplicateMS += hr.DuplicateMS
		}
		// The leg is built in its slot, zeroed and then written field by
		// field: a composite literal here is built in a temporary and
		// copied.
		legs = legs[:len(legs)+1]
		l := &legs[len(legs)-1]
		*l = Leg{}
		l.Shard, l.Client, l.Replica, l.Failovers = si, si, exec.Replica, exec.Failovers
		l.Truth, l.ActualMS = ev.PerShard[si].Hits, exec.ServiceMS
		l.QueueMS, l.ServiceMS, l.FreqGHz = exec.QueueMS, exec.ServiceMS, exec.Freq
		l.EndMS, l.Hedged, l.Status = e.Cluster.ResponseAtAggregatorMS(exec), hr.Hedged, exec.Status
		if hr.Hedged && hr.Won {
			// The winning duplicate was sent at dispatch+hedgeDelay: that
			// wait is hedge time, not failover time.
			l.HedgeWaitMS = hedgeDelay
		}
		l.FailoverMS = e.Cluster.FailoverDelayMS(exec, dispatch) - l.HedgeWaitMS
		if rep := d.Record.Report(si); rep != nil {
			// Scored against the unmargined service-time prediction (the
			// paper's Fig. 8 quantity): the LatencyMargin safety inflation
			// is policy, not predictor error.
			l.Pred = LegPred{OK: true, LatencyMS: rep.PredServiceMS, HasK: rep.HasK}
		}
		switch l.Status {
		case cluster.LegAnswered:
			l.Hits, l.DocsScored = ev.PerShard[si].Hits, ev.PerShard[si].Stats.DocsScored
			if e.Scaler != nil {
				e.Scaler.RecordService(exec.Shard, exec.ServiceMS)
			}
		case cluster.LegDropped:
			l.DocsScored = ev.PerShard[si].Stats.DocsScored
			if e.Anytime && exec.WorkFrac > 0 {
				// Budget miss, anytime mode: the node spent WorkFrac of the
				// full service before the deadline. Replay the anytime
				// traversal against that fraction of the query's measured
				// cycle cost (virtual time — deterministic, no wall clock).
				budget := exec.WorkFrac * e.Cluster.Cost.Cycles(ev.PerShard[si].Stats)
				r := search.Anytime(e.Shards[si], ev.Query.Terms, e.K, func(st search.ExecStats) bool {
					return e.Cluster.Cost.Cycles(st) > budget
				})
				l.Status, l.Hits, l.DocsScored, l.ScoreBound = cluster.LegTruncated, r.Hits, r.Stats.DocsScored, r.ScoreBound
			}
		}
		switch l.Status {
		case cluster.LegFailed, cluster.LegSevered:
			// The whole replica group is lost (dead shard, or every
			// failover attempt crashed/dropped): no answer is coming.
			aggDone = max(aggDone, giveup+e.Cluster.Net.AggToISNMS)
		case cluster.LegDropped:
			// The aggregator waits out the budget on a straggler.
			aggDone = max(aggDone, deadline+e.Cluster.Net.AggToISNMS)
		default:
			aggDone = max(aggDone, l.EndMS)
		}
	}
	e.legs = legs
	merged := Gather(e.K, legs, d.Record, e.Accuracy(), ev.TopK, out, nil, &e.merge)
	out.PAtK = pAtK(merged, ev)
	out.LatencyMS = aggDone + e.Cluster.Net.ClientMS - ev.Query.ArrivalMS
	if e.Cache != nil {
		e.Cache.Put(qcache.Key(ev.Query.Terms), slices.Clone(merged)) // merged is e.merge's
	}
	tb, root := e.startTrace(p, ev)
	if tb != nil {
		e.traceQuery(tb, root, d, arrive, dispatch, aggDone, legs)
	}
	e.FinishQuery(e.hists, tb, out.LatencyMS, d.BudgetMS, false, out.Degraded())
	observe(p, out.LatencyMS)
}

// pAtK is the share of the exhaustive top K that hits recovers; 1 when
// there is nothing to find.
func pAtK(hits []search.Hit, ev *Evaluated) float64 {
	if len(ev.TopK) == 0 {
		return 1
	}
	return float64(search.CountIn(hits, ev.TopK)) / float64(len(ev.TopK))
}

// vtUS converts a virtual-time millisecond stamp into the microsecond
// units spans carry (the simulated twin's traces live on the virtual
// clock, not the wall clock).
func vtUS(ms float64) int64 { return int64(ms * 1000) }

// startTrace opens a replayed query's trace; nil without an observer.
func (e *Engine) startTrace(p Policy, ev *Evaluated) (*obs.TraceBuilder, *obs.ActiveSpan) {
	if e.Obs == nil {
		return nil, nil
	}
	tb := obs.NewTraceBuilder(vtUS(ev.Query.ArrivalMS))
	root := tb.StartSpan("query", 0, vtUS(ev.Query.ArrivalMS))
	root.SetAttr("mode", p.Name())
	root.SetAttr("query_id", strconv.Itoa(ev.Query.ID))
	return tb, root
}

// traceQuery records the span tree the live aggregator records (query
// root, predict/budget/search/merge phases, per-ISN legs) for one
// replayed query, on the virtual clock.
func (e *Engine) traceQuery(tb *obs.TraceBuilder, root *obs.ActiveSpan, d Decision,
	arrive, dispatch, aggDone float64, legs []Leg) {
	if d.UsedPredictors {
		ps := tb.StartSpan("predict", root.ID(), vtUS(arrive))
		ps.End(vtUS(dispatch))
	}
	bs := tb.StartSpan("budget", root.ID(), vtUS(dispatch))
	bs.SetDecision(d.Record)
	bs.End(vtUS(dispatch))

	ss := tb.StartSpan("search", root.ID(), vtUS(dispatch))
	for i := range legs {
		// Every leg's span starts at dispatch, so a failover's or a won
		// hedge's later send shows up inside it (failover_ms, hedge_wait_ms).
		leg := tb.StartSpan("search.isn", ss.ID(), vtUS(dispatch))
		legs[i].Annotate(leg)
		leg.End(vtUS(legs[i].EndMS))
	}
	ss.End(vtUS(aggDone))
	ms := tb.StartSpan("merge", root.ID(), vtUS(aggDone))
	ms.End(vtUS(aggDone))
	root.End(vtUS(aggDone + e.Cluster.Net.ClientMS))
}

// chargeInference accounts the per-ISN predictor inference cost on every
// ISN (energy only; the latency cost is part of Decision.CoordMS).
func (e *Engine) chargeInference() {
	if e.Cluster.InferMS <= 0 {
		return
	}
	for range e.Shards {
		e.Cluster.Meter.AddBusy(e.Cluster.Ladder.Default(), e.Cluster.InferMS)
	}
}

// Summary condenses a RunResult into the numbers the paper's figures
// report.
type Summary struct {
	Policy      string
	MeanLatency float64
	// LatencyCILo/Hi bound the mean latency with a 95% percentile
	// bootstrap over the per-query latencies (deterministic).
	LatencyCILo float64
	LatencyCIHi float64
	P95Latency  float64
	P99Latency  float64
	MeanPAtK    float64
	MeanISNs    float64
	MeanCRES    float64
	AvgPowerW   float64
	Queries     int
	DroppedFrac float64
	// TruncatedFrac is the share of queries where at least one
	// participant answered truncated (anytime mode budget miss).
	TruncatedFrac float64
	// FailedFrac is the share of queries that dispatched to at least one
	// dead ISN (injected failures).
	FailedFrac float64
	// FailoverFrac is the share of queries where at least one leg failed
	// over to a sibling replica mid-query.
	FailoverFrac float64
	// HedgeLegRate is hedged legs per participating leg — how often the
	// hedging layer paid for a duplicate.
	HedgeLegRate float64
	// HedgeWinFrac is the share of hedges whose duplicate actually won
	// the race (useful hedges).
	HedgeWinFrac float64
	// DuplicateWorkFrac is hedging's wasted busy time as a fraction of
	// all busy time.
	DuplicateWorkFrac float64
}

// Summarize computes a Summary from a RunResult.
func Summarize(r RunResult) Summary {
	s := Summary{Policy: r.Policy, AvgPowerW: r.AvgPowerW, Queries: len(r.Outcomes)}
	if len(r.Outcomes) == 0 {
		return s
	}
	lats := make([]float64, len(r.Outcomes))
	dropped, truncated, failed, failedOver := 0, 0, 0, 0
	legs, hedged, hedgeWon := 0, 0, 0
	dupMS := 0.0
	for i, o := range r.Outcomes {
		lats[i] = o.LatencyMS
		s.MeanPAtK += o.PAtK
		s.MeanISNs += float64(o.ActiveISNs)
		s.MeanCRES += float64(o.DocsSearched)
		legs += o.ActiveISNs
		hedged += o.HedgedISNs
		hedgeWon += o.HedgeWonISNs
		dupMS += o.DuplicateMS
		if o.DroppedISNs > 0 {
			dropped++
		}
		if o.TruncatedISNs > 0 {
			truncated++
		}
		if o.FailedISNs > 0 {
			failed++
		}
		if o.Failovers > 0 {
			failedOver++
		}
	}
	if legs > 0 {
		s.HedgeLegRate = float64(hedged) / float64(legs)
	}
	if hedged > 0 {
		s.HedgeWinFrac = float64(hedgeWon) / float64(hedged)
	}
	if r.TotalBusyMS > 0 {
		s.DuplicateWorkFrac = dupMS / r.TotalBusyMS
	}
	n := float64(len(r.Outcomes))
	s.MeanLatency = stats.Mean(lats)
	s.LatencyCILo, s.LatencyCIHi = stats.BootstrapCI(lats)
	s.P95Latency = stats.Percentile(lats, 95)
	s.P99Latency = stats.Percentile(lats, 99)
	s.MeanPAtK /= n
	s.MeanISNs /= n
	s.MeanCRES /= n
	s.DroppedFrac = float64(dropped) / n
	s.TruncatedFrac = float64(truncated) / n
	s.FailedFrac = float64(failed) / n
	s.FailoverFrac = float64(failedOver) / n
	return s
}
