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
	"strconv"

	"cottage/internal/autoscale"
	"cottage/internal/cluster"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/obs/slo"
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
	// Obs, when set, makes the simulated twin record the same
	// observability surface as the live transport: one virtual-time trace
	// per query (predict/budget/search/merge spans, per-ISN execution
	// legs, the Algorithm 1 decision record), latency/budget histograms,
	// and rolling predictor accuracy — so harness sweeps validate the
	// instrumentation itself.
	Obs *obs.Observer
	// Scaler, when set, closes the autoscaling loop during Run: every
	// arrival feeds its rate estimator, completed legs feed per-shard
	// service EWMAs, and on each cadence tick the controller's plan is
	// applied to the cluster's active replica rows. The cluster should
	// be built with DynamicMachines so scale-downs show up in power and
	// machine time.
	Scaler *autoscale.Controller
	// ScaleStartR is the active replica count per shard at the start of
	// a scaled run (default 1 — the controller earns its capacity).
	ScaleStartR int
	// Hedge sends a duplicate of a leg to a sibling replica. A leg's
	// predictive hedge signal is Eq. 2 over the policy's
	// Decision.PredCycles plus the serving replica's latency defect; legs
	// without a prediction never hedge.
	Hedge cluster.Hedge
	// Anatomy, when set alongside Obs, receives a per-phase latency
	// attribution for every executed query (cache hits are skipped —
	// they have no phases to attribute). Registered on the observer's
	// registry at Run start.
	Anatomy *anatomy.Collector
	// SLO, when set, is fed every query's latency and quality signal
	// (degraded = any failed/truncated/dropped/shed shard) plus the
	// fleet's average power, driving burn-rate alerting on the twin's
	// virtual clock.
	SLO *slo.QuerySLO

	// runObs caches the current Run's metric handles (resolved once per
	// Run so the per-query hot path never touches the registry).
	runObs *engineRunObs
}

// engineRunObs holds one Run's pre-resolved metric handles.
type engineRunObs struct {
	latency *obs.Histogram
	budget  *obs.Histogram
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
// for; see textgen.AllocateTopical).
func BuildShards(corpus *textgen.Corpus, cfg Config, homeShards int, spill float64, seed uint64) []*index.Shard {
	alloc := corpus.AllocateTopical(cfg.NumShards, homeShards, spill, seed)
	return buildFromAllocation(corpus, alloc, cfg)
}

// BuildShardsRoundRobin indexes with source-order allocation, for
// contrast experiments.
func BuildShardsRoundRobin(corpus *textgen.Corpus, cfg Config) []*index.Shard {
	return buildFromAllocation(corpus, corpus.AllocateRoundRobin(cfg.NumShards), cfg)
}

func buildFromAllocation(corpus *textgen.Corpus, alloc [][]int, cfg Config) []*index.Shard {
	shards := make([]*index.Shard, len(alloc))
	for si, docIDs := range alloc {
		b := index.NewBuilder(si, cfg.BM25, cfg.K)
		for _, id := range docIDs {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
		}
		shards[si] = b.Finalize()
	}
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
	// returns); TopKSet indexes it.
	TopK    []search.Hit
	TopKSet map[int64]bool
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
	lists := make([][]search.Hit, len(e.Shards))
	par.ForMax(len(e.Shards), shardWorkers, func(si int) {
		ev.PerShard[si] = search.Eval(e.Strategy, e.Shards[si], q.Terms, e.K)
		ev.Cycles[si] = e.Cluster.EffectiveCycles(si, e.Cluster.Cost.Cycles(ev.PerShard[si].Stats))
		lists[si] = ev.PerShard[si].Hits
	})
	ev.TopK = search.Merge(e.K, lists...)
	ev.TopKSet = search.DocSet(ev.TopK)
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

// Policy decides, per query, which ISNs run, at what frequency, and under
// what time budget. Implementations must only use information available
// to a real aggregator: the query terms, index statistics, predictions,
// and cluster queue state — never the Evaluated ground truth.
type Policy interface {
	Name() string
	Decide(e *Engine, q trace.Query, nowMS float64) Decision
	// Observe feeds back the client latency of a completed query, for
	// adaptive policies (epoch-based aggregation). Others ignore it.
	Observe(latencyMS float64)
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
	Policy      string
	Outcomes    []Outcome
	AvgPowerW   float64
	Utilization float64
	DurationMS  float64
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
		r0 := e.ScaleStartR
		if r0 < 1 {
			r0 = 1
		}
		e.Scaler.Reset(r0)
		e.Cluster.SetAllActiveReplicas(r0, 0)
	}
	e.runObs = nil
	if e.Obs != nil {
		reg := e.Obs.Reg
		e.runObs = &engineRunObs{
			latency: reg.Histogram("cottage_agg_query_ms",
				"End-to-end query latency at the aggregator (virtual time).",
				obs.LatencyBucketsMS(), obs.L("mode", p.Name())),
			budget: reg.Histogram("cottage_agg_budget_ms",
				"Algorithm 1 time budget T per query (finite budgets only).",
				obs.LatencyBucketsMS()),
		}
		e.Cluster.Register(reg) // idempotent: create-or-get
		if e.Anatomy != nil {
			e.Anatomy.Register(reg)
		}
	}
	res := RunResult{Policy: p.Name(), Outcomes: make([]Outcome, 0, len(evs))}
	for _, ev := range evs {
		res.Outcomes = append(res.Outcomes, e.runOne(p, ev))
	}
	res.DurationMS = e.Cluster.NowMS()
	res.AvgPowerW = e.Cluster.AveragePowerWatts()
	res.Utilization = e.Cluster.Utilization()
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

// cacheLookupMS is the aggregator-side cost of a cache probe.
const cacheLookupMS = 0.02

func (e *Engine) runOne(p Policy, ev *Evaluated) Outcome {
	arrive := ev.Query.ArrivalMS + e.Cluster.Net.ClientMS // at aggregator
	if e.Cache != nil {
		key := qcache.Key(ev.Query.Terms)
		if hits, ok := e.Cache.Get(key); ok {
			out := Outcome{
				QueryID:   ev.Query.ID,
				ArrivalMS: ev.Query.ArrivalMS,
				LatencyMS: 2*e.Cluster.Net.ClientMS + cacheLookupMS,
				BudgetMS:  0,
			}
			if len(ev.TopK) > 0 {
				out.PAtK = float64(search.Overlap(hits, ev.TopKSet)) / float64(len(ev.TopK))
			} else {
				out.PAtK = 1
			}
			e.recordCacheHit(p, ev, out)
			if e.SLO != nil {
				e.SLO.ObserveQuery(out.LatencyMS, false)
			}
			p.Observe(out.LatencyMS)
			return out
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

	out := Outcome{
		QueryID:   ev.Query.ID,
		ArrivalMS: ev.Query.ArrivalMS,
		BudgetMS:  d.BudgetMS,
	}
	var lists [][]search.Hit
	var execs []cluster.Execution // recorded for the trace (observer only)
	var hedgeWaits []float64      // parallel to execs: hedge-timer wait on won legs
	var truncBounds map[int]float64
	aggDone := dispatch
	anyDropped := false
	anyFailed := false
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
		exec, hr := e.Cluster.ExecuteShardHedged(si, dispatch, ev.Cycles[si], f, deadline, hedgeDelay)
		if hr.Hedged {
			out.HedgedISNs++
			if hr.Won {
				out.HedgeWonISNs++
			}
			out.DuplicateMS += hr.DuplicateMS
		}
		if e.Obs != nil {
			execs = append(execs, exec)
			// A won hedge's leg was sent at dispatch+hedgeDelay; that wait
			// is hedge time, not failover time, so recordQuery needs it to
			// split the two apart.
			hw := 0.0
			if hr.Hedged && hr.Won {
				hw = hedgeDelay
			}
			hedgeWaits = append(hedgeWaits, hw)
		}
		out.Failovers += exec.Failovers
		if exec.Failed || exec.Dropped {
			// The whole replica group is lost (dead shard, or every
			// failover attempt crashed/dropped): nothing was searched.
			anyFailed = true
			out.FailedISNs++
			continue
		}
		if exec.Shed {
			// Overloaded node: an immediate rejection, not silence — the
			// aggregator hears back after one hop and moves on without
			// this shard's hits.
			out.ShedISNs++
			if resp := e.Cluster.ResponseAtAggregatorMS(exec); resp > aggDone {
				aggDone = resp
			}
			continue
		}
		if exec.CorruptReject {
			// Every replica bounced on integrity grounds: typed rejection
			// after one hop, contribution lost, and — by construction —
			// not one corrupted posting in the merge.
			out.CorruptISNs++
			if resp := e.Cluster.ResponseAtAggregatorMS(exec); resp > aggDone {
				aggDone = resp
			}
			continue
		}
		out.ActiveISNs++
		if e.Scaler != nil && exec.Completed {
			e.Scaler.RecordService(exec.Shard, exec.ServiceMS)
		}
		switch {
		case exec.Completed:
			out.DocsSearched += ev.PerShard[si].Stats.DocsScored
			lists = append(lists, ev.PerShard[si].Hits)
			if resp := e.Cluster.ResponseAtAggregatorMS(exec); resp > aggDone {
				aggDone = resp
			}
		case e.Anytime && exec.WorkFrac > 0:
			// Budget miss, anytime mode: the node spent WorkFrac of the
			// full service before the deadline. Replay the anytime
			// traversal against that fraction of the query's measured
			// cycle cost (virtual time — deterministic, no wall clock)
			// and merge the truncated, quality-bounded answer.
			budget := exec.WorkFrac * e.Cluster.Cost.Cycles(ev.PerShard[si].Stats)
			r := search.Anytime(e.Shards[si], ev.Query.Terms, e.K, func(st search.ExecStats) bool {
				return e.Cluster.Cost.Cycles(st) > budget
			})
			out.TruncatedISNs++
			out.DocsSearched += r.Stats.DocsScored
			if len(r.Hits) > 0 {
				lists = append(lists, r.Hits)
			}
			if truncBounds == nil {
				truncBounds = make(map[int]float64)
			}
			truncBounds[si] = r.ScoreBound
			d.Record.MarkTruncated(si, r.ScoreBound)
			if resp := e.Cluster.ResponseAtAggregatorMS(exec); resp > aggDone {
				aggDone = resp
			}
		default:
			out.DocsSearched += ev.PerShard[si].Stats.DocsScored
			anyDropped = true
			out.DroppedISNs++
		}
	}
	if anyDropped {
		// The aggregator waited for the full budget before giving up on
		// the stragglers.
		if t := deadline + e.Cluster.Net.AggToISNMS; t > aggDone {
			aggDone = t
		}
	}
	if anyFailed {
		// A dead participant never answers: the aggregator gives up at
		// the budget, or — with no budget — at its failure-detection
		// timeout.
		giveup := deadline
		if math.IsInf(giveup, 1) {
			giveup = dispatch + e.Cluster.FailTimeoutMS
		}
		if t := giveup + e.Cluster.Net.AggToISNMS; t > aggDone {
			aggDone = t
		}
	}
	merged := search.Merge(e.K, lists...)
	denom := len(ev.TopK)
	if denom > 0 {
		out.PAtK = float64(search.Overlap(merged, ev.TopKSet)) / float64(denom)
	} else {
		out.PAtK = 1 // nothing to find; trivially perfect
	}
	out.LatencyMS = aggDone + e.Cluster.Net.ClientMS - ev.Query.ArrivalMS
	if e.Cache != nil {
		e.Cache.Put(qcache.Key(ev.Query.Terms), merged)
	}
	e.recordQuery(p, ev, d, arrive, dispatch, aggDone, execs, hedgeWaits, truncBounds, out)
	if e.SLO != nil {
		degraded := out.FailedISNs > 0 || out.TruncatedISNs > 0 ||
			out.DroppedISNs > 0 || out.ShedISNs > 0 || out.CorruptISNs > 0
		e.SLO.ObserveQuery(out.LatencyMS, degraded)
		e.SLO.ObservePower(e.Cluster.AveragePowerWatts())
	}
	p.Observe(out.LatencyMS)
	return out
}

// vtUS converts a virtual-time millisecond stamp into the microsecond
// units spans carry (the simulated twin's traces live on the virtual
// clock, not the wall clock).
func vtUS(ms float64) int64 { return int64(ms * 1000) }

// recordCacheHit traces an aggregator cache hit: a single query root,
// no fan-out.
func (e *Engine) recordCacheHit(p Policy, ev *Evaluated, out Outcome) {
	if e.Obs == nil {
		return
	}
	e.runObs.latency.Observe(out.LatencyMS)
	tb := obs.NewTraceBuilder(vtUS(ev.Query.ArrivalMS))
	root := tb.StartSpan("query", 0, vtUS(ev.Query.ArrivalMS))
	root.SetAttr("mode", p.Name())
	root.SetAttr("cache", "hit")
	root.SetAttr("query_id", strconv.Itoa(ev.Query.ID))
	root.End(vtUS(ev.Query.ArrivalMS + out.LatencyMS))
	e.Obs.AddTrace(tb.Finish())
}

// recordQuery emits the simulated twin's observability for one replayed
// query: the same span tree the live aggregator records (query root,
// predict/budget/search/merge phases, per-ISN execution legs), the
// latency/budget histograms, and — when the policy produced an
// Algorithm 1 decision record — predictor-accuracy samples comparing
// predicted equivalent latency and top-K contribution against what the
// simulator actually did.
func (e *Engine) recordQuery(p Policy, ev *Evaluated, d Decision,
	arrive, dispatch, aggDone float64, execs []cluster.Execution,
	hedgeWaits []float64, truncBounds map[int]float64, out Outcome) {

	if e.Obs == nil {
		return
	}
	e.runObs.latency.Observe(out.LatencyMS)
	if !math.IsInf(d.BudgetMS, 1) && d.BudgetMS > 0 {
		e.runObs.budget.Observe(d.BudgetMS)
	}

	tb := obs.NewTraceBuilder(vtUS(ev.Query.ArrivalMS))
	root := tb.StartSpan("query", 0, vtUS(ev.Query.ArrivalMS))
	root.SetAttr("mode", p.Name())
	root.SetAttr("query_id", strconv.Itoa(ev.Query.ID))

	if d.UsedPredictors {
		ps := tb.StartSpan("predict", root.ID(), vtUS(arrive))
		ps.End(vtUS(dispatch))
	}
	bs := tb.StartSpan("budget", root.ID(), vtUS(dispatch))
	bs.SetDecision(d.Record)
	bs.End(vtUS(dispatch))

	ss := tb.StartSpan("search", root.ID(), vtUS(dispatch))
	for i, exec := range execs {
		leg := tb.StartSpan("search.isn", ss.ID(), vtUS(dispatch))
		leg.SetISN(exec.Shard)
		leg.SetAttr("replica", strconv.Itoa(exec.Replica))
		if exec.Failovers > 0 {
			leg.SetAttr("failovers", strconv.Itoa(exec.Failovers))
		}
		leg.SetAttr("freq_ghz", strconv.FormatFloat(exec.Freq, 'g', -1, 64))
		// Phase attribution attrs: how much of this leg's span was a hedge
		// timer vs failover detection vs real work. The leg span starts at
		// dispatch, so the winning attempt's later send shows up here.
		hw := 0.0
		if i < len(hedgeWaits) {
			hw = hedgeWaits[i]
		}
		if hw > 0 {
			leg.SetAttr("hedged", "true")
			leg.SetAttr("hedge_wait_ms", strconv.FormatFloat(hw, 'g', -1, 64))
		}
		if fo := e.Cluster.FailoverDelayMS(exec, dispatch) - hw; fo > 0 {
			leg.SetAttr("failover_ms", strconv.FormatFloat(fo, 'g', -1, 64))
		}
		switch {
		case exec.Failed:
			leg.SetAttr("failed", "true")
		case exec.Shed:
			leg.SetAttr("shed", "true")
		case exec.Dropped:
			leg.SetAttr("conn_dropped", "true")
		default:
			leg.SetAttr("queue_ms", strconv.FormatFloat(exec.QueueMS, 'g', -1, 64))
			leg.SetAttr("service_ms", strconv.FormatFloat(exec.ServiceMS, 'g', -1, 64))
			if !exec.Completed {
				if bound, ok := truncBounds[exec.Shard]; ok {
					leg.SetAttr("truncated", "true")
					leg.SetAttr("score_bound", strconv.FormatFloat(bound, 'g', -1, 64))
				} else {
					leg.SetAttr("dropped", "true")
				}
			}
		}
		leg.End(vtUS(e.Cluster.ResponseAtAggregatorMS(exec)))
	}
	ss.End(vtUS(aggDone))
	ms := tb.StartSpan("merge", root.ID(), vtUS(aggDone))
	ms.End(vtUS(aggDone))
	root.End(vtUS(aggDone + e.Cluster.Net.ClientMS))
	tr := tb.Finish()
	e.Obs.AddTrace(tr)
	if e.Anatomy != nil {
		if attr, ok := anatomy.FromTrace(tr); ok {
			e.Anatomy.Observe(attr)
		}
	}

	// Predictor accuracy, when the policy exposed its reports: the
	// unmargined service-time prediction at the assigned frequency
	// against the simulator's actual service time (the paper's Fig. 8
	// quantity — the deliberate LatencyMargin safety inflation is policy,
	// not predictor error), and predicted top-K membership against the
	// shard's true overlap with the exhaustive top-K. Truncated
	// executions are skipped: their busy time is the budget, not the
	// query's cost.
	if d.Record == nil {
		return
	}
	byShard := make(map[int]*obs.ReportRecord, len(d.Record.Reports))
	for i := range d.Record.Reports {
		byShard[d.Record.Reports[i].ISN] = &d.Record.Reports[i]
	}
	for _, exec := range execs {
		rep := byShard[exec.Shard]
		if rep == nil || exec.Failed || exec.Shed || exec.Dropped {
			continue
		}
		// Accuracy is tracked per shard: replicas of a shard share its
		// documents and hardware class, so the predictor's target is the
		// shard regardless of which copy served the leg.
		if exec.Completed {
			e.Obs.Acc.ObserveLatency(exec.Shard, rep.PredServiceMS, exec.ServiceMS)
		}
		actualHasK := search.Overlap(ev.PerShard[exec.Shard].Hits, ev.TopKSet) > 0
		e.Obs.Acc.ObserveQuality(exec.Shard, rep.HasK, actualHasK)
	}
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
	Utilization float64
	Queries     int
	DroppedFrac float64
	// TruncatedFrac is the share of queries where at least one
	// participant answered truncated (anytime mode budget miss).
	TruncatedFrac float64
	// FailedFrac is the share of queries that dispatched to at least one
	// dead ISN (injected failures).
	FailedFrac float64
	// ShedFrac is the share of queries that had at least one participant
	// shed by admission control (bounded queues under overload).
	ShedFrac float64
	// CorruptFrac is the share of queries that lost at least one shard
	// to an integrity bounce (every replica of the shard quarantined).
	CorruptFrac float64
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
	// MachineMS is the run's integrated machine time in node·ms.
	MachineMS float64
}

// Summarize computes a Summary from a RunResult.
func Summarize(r RunResult) Summary {
	s := Summary{Policy: r.Policy, AvgPowerW: r.AvgPowerW, Utilization: r.Utilization,
		Queries: len(r.Outcomes), MachineMS: r.MachineMS}
	if len(r.Outcomes) == 0 {
		return s
	}
	lats := make([]float64, len(r.Outcomes))
	dropped, truncated, failed, shed, corrupt, failedOver := 0, 0, 0, 0, 0, 0
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
		if o.ShedISNs > 0 {
			shed++
		}
		if o.CorruptISNs > 0 {
			corrupt++
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
	s.LatencyCILo, s.LatencyCIHi = stats.BootstrapCI(lats, 200, 0.95, 42)
	s.P95Latency = stats.Percentile(lats, 95)
	s.P99Latency = stats.Percentile(lats, 99)
	s.MeanPAtK /= n
	s.MeanISNs /= n
	s.MeanCRES /= n
	s.DroppedFrac = float64(dropped) / n
	s.TruncatedFrac = float64(truncated) / n
	s.FailedFrac = float64(failed) / n
	s.ShedFrac = float64(shed) / n
	s.CorruptFrac = float64(corrupt) / n
	s.FailoverFrac = float64(failedOver) / n
	return s
}
