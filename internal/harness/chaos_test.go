package harness

import (
	"math"
	"testing"

	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/faults"
	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// chaosFixture builds a small replicated twin (8 shards × 2 replicas)
// with trained predictors and an observer — deliberately smaller than
// testSetup so the chaos smoke stays fast under the race detector.
func chaosFixture(t *testing.T) (*engine.Engine, []*engine.Evaluated) {
	t.Helper()
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 2400
	ccfg.VocabSize = 3000
	ccfg.NumTopics = 12
	ccfg.TopicTermCount = 100
	corpus := textgen.Generate(ccfg)

	ecfg := engine.DefaultConfig()
	ecfg.NumShards = 8
	ecfg.Cluster.Replicas = 2
	shards := engine.BuildShards(corpus, ecfg, 3)
	eng := engine.New(shards, ecfg)

	qs := trace.Generate(corpus, trace.Config{
		Kind: trace.Wikipedia, Seed: 7, NumQueries: 700, QPS: 40})
	pcfg := predict.DefaultConfig(ecfg.K)
	pcfg.QualitySteps = 150
	pcfg.LatencySteps = 80
	if _, err := eng.TrainFleet(qs[:400], pcfg); err != nil {
		t.Fatal(err)
	}
	evs := eng.EvaluateAll(qs[400:])
	// Ring large enough to retain every run's traces (baseline + chaos +
	// slow), so the budget invariant can be checked over all of them.
	eng.Obs = obs.NewObserver(ecfg.NumShards, 3*len(evs)+64)
	return eng, evs
}

// TestChaosSmoke replays a seeded fault schedule — crashes, connection
// drops, corrupted replies and slowdowns from internal/faults — over
// the replicated twin and asserts the robustness invariants:
//
//  1. no lost query: every shard keeps >=1 live replica, so no query
//     loses a leg (failover absorbs every injected fault);
//  2. the budget dominates every selected shard's boosted latency
//     (checked from the Algorithm 1 decision records in the traces);
//  3. quality stays within straggler noise of the fault-free run:
//     faults cost failovers and latency, not results.
//
// `make check` runs it with and without -race.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains predictors")
	}
	eng, evs := chaosFixture(t)
	topo := eng.Cluster.Topo()
	pol := core.NewCottage()
	pol.Degraded = core.DegradedConservative

	base := eng.Run(pol, evs)

	// Seeded schedule: crash the row-0 replica of two shards, sever
	// streams on one replica of a third, corrupt replies on one replica
	// of a fourth. Every shard keeps a clean sibling.
	inj := faults.NewInjector(2026)
	crashed := make(map[int]bool)
	for _, s := range faults.PickVictims(2026, 2, topo.Shards) {
		inj.Crash(topo.Node(s, 0))
		crashed[s] = true
	}
	var chaosShards []int
	for s := 0; s < topo.Shards && len(chaosShards) < 3; s++ {
		if !crashed[s] {
			chaosShards = append(chaosShards, s)
		}
	}
	inj.SetPlan(topo.Node(chaosShards[0], 1), faults.Plan{DropProb: 0.3})
	inj.SetPlan(topo.Node(chaosShards[1], 0), faults.Plan{CorruptProb: 0.25})
	eng.Cluster.Faults = inj
	defer func() { eng.Cluster.Faults = nil }()

	chaos := eng.Run(pol, evs)
	assertNoLostQuery(t, "chaos", chaos, len(evs))
	counts := inj.Counts()
	if counts[faults.Drop]+counts[faults.Corrupt] == 0 {
		t.Fatal("chaos schedule never fired a drop/corrupt fault")
	}
	failovers := 0
	for _, o := range chaos.Outcomes {
		failovers += o.Failovers
	}
	if failovers == 0 {
		t.Fatal("no leg ever failed over under the chaos schedule")
	}
	// With a live sibling behind every fault, failover turns faults into
	// latency, never into lost legs — so mean quality must match the
	// fault-free run to within straggler noise. (Per-query equality is
	// too strong: Cottage boosts the slowest shard to run right at the
	// budget boundary, so which legs straggle past the deadline shifts
	// with queue state, and crashes change queue state. The fault-free
	// run drops boundary legs for the same reason.)
	baseSum, chaosSum := engine.Summarize(base), engine.Summarize(chaos)
	if chaosSum.MeanPAtK < baseSum.MeanPAtK-0.01 {
		t.Fatalf("chaos quality dropped beyond straggler noise: %v vs fault-free %v",
			chaosSum.MeanPAtK, baseSum.MeanPAtK)
	}

	// Add slowdowns on a fifth shard's row-0 replica: still no lost
	// query, and bounded quality loss. The budget is priced without
	// knowledge of the injected slowdown — and Cottage deliberately
	// boosts every shard down to run near the budget boundary — so the
	// slowed replica's legs straggle past the deadline and are cut at
	// merge on roughly the half of queries JSQ routes to it. That is
	// graceful degradation (one shard's partial contribution), never
	// loss, and it must stay well under one full shard's worth.
	inj.SetPlan(topo.Node(chaosShards[2], 0), faults.Plan{SlowMS: 1.2, SlowJitterMS: 0.6})
	slow := eng.Run(pol, evs)
	assertNoLostQuery(t, "slow", slow, len(evs))
	if inj.Counts()[faults.Slow] == 0 {
		t.Fatal("slow plan never fired")
	}
	slowSum := engine.Summarize(slow)
	if slowSum.MeanPAtK < baseSum.MeanPAtK-0.1 {
		t.Fatalf("slowdowns cost too much quality: %v vs fault-free %v",
			slowSum.MeanPAtK, baseSum.MeanPAtK)
	}

	// Budget invariant over every recorded decision (all three runs):
	// the budget must dominate each selected shard's boosted latency —
	// otherwise Algorithm 1 planned a leg it knew could not land.
	checked := 0
	for _, tr := range eng.Obs.Traces.Recent(3*len(evs) + 64) {
		bs := tr.Find("budget")
		if bs == nil || bs.Decision == nil || math.IsInf(bs.Decision.BudgetMS, 1) {
			continue
		}
		for _, rr := range bs.Decision.Reports {
			if rr.Cut {
				continue
			}
			if rr.LBoostedMS > bs.Decision.BudgetMS*(1+1e-9) {
				t.Fatalf("trace %d: budget %v ms below selected shard %d's boosted latency %v ms",
					tr.ID, bs.Decision.BudgetMS, rr.ISN, rr.LBoostedMS)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no decision records found in traces")
	}
}

// assertNoLostQuery checks the first chaos invariant: every query came
// back, and none lost a replica-group leg (FailedISNs counts groups
// whose every failover attempt was lost).
func assertNoLostQuery(t *testing.T, phase string, r engine.RunResult, want int) {
	t.Helper()
	if len(r.Outcomes) != want {
		t.Fatalf("%s: %d of %d queries came back", phase, len(r.Outcomes), want)
	}
	for _, o := range r.Outcomes {
		if o.FailedISNs > 0 {
			t.Fatalf("%s: query %d lost %d replica-group legs with a live sibling present",
				phase, o.QueryID, o.FailedISNs)
		}
		if o.LatencyMS <= 0 || math.IsNaN(o.LatencyMS) {
			t.Fatalf("%s: query %d has no latency: %v", phase, o.QueryID, o.LatencyMS)
		}
	}
}
