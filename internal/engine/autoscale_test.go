package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"cottage/internal/autoscale"
	"cottage/internal/faults"
	"cottage/internal/stats"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// scaledEngine builds a replicated, dynamic-machines engine (and the
// corpus to draw traces from) — the autoscaler's home turf.
func scaledEngine(tb testing.TB, r int) (*Engine, *textgen.Corpus) {
	tb.Helper()
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 3000
	ccfg.VocabSize = 4000
	ccfg.NumTopics = 16
	ccfg.TopicTermCount = 120
	corpus := textgen.Generate(ccfg)
	cfg := DefaultConfig()
	cfg.NumShards = 8
	cfg.Cluster.Replicas = r
	cfg.Cluster.DynamicMachines = true
	shards := BuildShards(corpus, cfg, 2, 0.15, 5)
	return New(shards, cfg), corpus
}

// flashTrace is hot enough that its bursts saturate a single replica
// row on the fixture's tiny shards.
func flashTrace(corpus *textgen.Corpus) []trace.Query {
	return trace.Generate(corpus, trace.Config{
		Kind: trace.Wikipedia, Seed: 9, NumQueries: 800, QPS: 140,
		Arrivals: trace.ArrivalConfig{
			Profile: trace.Flash, FlashEveryMS: 2_000, FlashDurationMS: 600, FlashFactor: 5,
		},
	})
}

func testScaler(maxR int) *autoscale.Controller {
	return autoscale.New(autoscale.Config{
		Planner:          autoscale.PlannerConfig{SLOp99MS: 40, MaxReplicas: maxR},
		ReplanIntervalMS: 500,
		BoostQueueMS:     20,
	}, 8, 1)
}

// TestScaledRunDeterministicAcrossGOMAXPROCS: the closed-loop
// autoscaling replay — plan trail, machine time, every outcome — is
// bit-identical at any worker count and across repeated runs.
func TestScaledRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	e, corpus := scaledEngine(t, 3)
	qs := flashTrace(corpus)
	e.Scaler = testScaler(3)
	e.Hedge.AfterMS = 30
	run := func(procs int) RunResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		evs := e.EvaluateAll(qs)
		return e.Run(&fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}, evs)
	}
	r1, r8 := run(1), run(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Error("scaled run differs across GOMAXPROCS")
	}
	if len(r1.ScaleLog) == 0 {
		t.Fatal("flash trace never triggered a scale event — fixture too tame")
	}
	rAgain := run(1)
	if !reflect.DeepEqual(r1.ScaleLog, rAgain.ScaleLog) {
		t.Errorf("plan trail differs across runs:\n%v\nvs\n%v", r1.ScaleLog, rAgain.ScaleLog)
	}
}

// TestScaledRunSavesMachineTime: under the same flash trace, the
// closed-loop controller bills fewer machine-hours than the static
// fully-replicated fleet while the replica machinery stays live.
func TestScaledRunSavesMachineTime(t *testing.T) {
	e, corpus := scaledEngine(t, 3)
	evs := e.EvaluateAll(flashTrace(corpus))
	p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}

	static := e.Run(p, evs) // no scaler: all 3 rows on for the horizon
	e.Scaler = testScaler(3)
	scaled := e.Run(p, evs)

	if scaled.MachineMS >= static.MachineMS {
		t.Fatalf("autoscaled machine time %.0f not below static %.0f",
			scaled.MachineMS, static.MachineMS)
	}
	if math.Abs(static.MachineMS-static.DurationMS*24) > 1e-6*static.MachineMS {
		t.Fatalf("static machine time %.0f, want horizon×24 nodes = %.0f",
			static.MachineMS, static.DurationMS*24)
	}
	if len(scaled.ScaleLog) == 0 {
		t.Fatal("scaled run has no plan trail")
	}
	// Quality is untouched: participation is policy-side, and every
	// query still reaches every shard.
	for i := range scaled.Outcomes {
		if scaled.Outcomes[i].PAtK != 1 {
			t.Fatalf("autoscaling broke quality at query %d", i)
		}
	}
}

// TestHedgingTamesInjectedStraggler: with one limping replica in each
// group's row 0, fixed-delay hedging cuts the tail versus no hedging
// and bills the duplicate work it burned.
func TestHedgingTamesInjectedStraggler(t *testing.T) {
	e, corpus := scaledEngine(t, 2)
	// A light stationary trace: the tail belongs to the straggler, not
	// to queueing — exactly the regime hedging is for.
	qs := trace.Generate(corpus, trace.Config{
		Kind: trace.Wikipedia, Seed: 4, NumQueries: 300, QPS: 25})
	// Row 0 of shard 0 limps badly; its sibling (row 1) is clean.
	e.Cluster.Faults = faults.NewInjector(0)
	e.Cluster.Faults.SetPlan(0, faults.Plan{SlowMS: 80})
	evs := e.EvaluateAll(qs)
	p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}

	plain := e.Run(p, evs)
	e.Hedge.AfterMS = 25
	hedged := e.Run(p, evs)

	tail := func(r RunResult) float64 {
		lats := make([]float64, len(r.Outcomes))
		for i, o := range r.Outcomes {
			lats[i] = o.LatencyMS
		}
		return stats.Percentile(lats, 99)
	}
	if tp, th := tail(plain), tail(hedged); th >= tp {
		t.Fatalf("hedged p99 %.2f not below plain %.2f", th, tp)
	}
	sh := Summarize(hedged)
	if sh.HedgeLegRate <= 0 || sh.DuplicateWorkFrac <= 0 {
		t.Fatalf("hedged run recorded no hedging cost: %+v", sh)
	}
	sp := Summarize(plain)
	if sp.HedgeLegRate != 0 || sp.DuplicateWorkFrac != 0 {
		t.Fatal("unhedged run recorded hedges")
	}
}
