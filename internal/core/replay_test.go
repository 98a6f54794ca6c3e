package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cottage/internal/baselines"
	"cottage/internal/cluster"
	"cottage/internal/engine"
	"cottage/internal/faults"
)

// runDigest hashes everything a replay reports: every Outcome field
// (%v prints floats in their shortest round-tripping form, so equal
// text means equal bits) and the run-level power, utilization and time
// totals as raw bits. Utilization is read from the cluster the run
// left behind.
func runDigest(r engine.RunResult, c *cluster.Cluster) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v\n", r.Outcomes)
	for _, v := range []float64{r.AvgPowerW, c.Utilization(), r.MachineMS, r.TotalBusyMS} {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replicatedTwin is the fixture's shards and predictors on an R=2 fleet
// with every failure path armed: a timer hedge on each leg, one dead
// node, and a seeded schedule of dropped, corrupted and slowed requests
// on other replicas. Each call starts a fresh fault schedule.
func replicatedTwin(eng *engine.Engine) *engine.Engine {
	cfg := engine.DefaultConfig()
	cfg.NumShards = len(eng.Shards)
	cfg.Cluster.Replicas = 2
	rep := engine.New(eng.Shards, cfg)
	rep.Fleet = eng.Fleet
	rep.Hedge = cluster.Hedge{AfterMS: 1.5}
	topo := rep.Cluster.Topo()
	inj := faults.NewInjector(35)
	inj.Crash(topo.Node(1, 0))
	inj.SetPlan(topo.Node(2, 1), faults.Plan{DropProb: 0.3})
	inj.SetPlan(topo.Node(3, 0), faults.Plan{CorruptProb: 0.25})
	inj.SetPlan(topo.Node(0, 0), faults.Plan{SlowMS: 2, SlowJitterMS: 1})
	rep.Cluster.Faults = inj
	return rep
}

// TestReplayGolden pins three replays bit for bit, with digests computed
// before the replay path reused its buffers: Cottage and exhaustive
// search on the unreplicated fleet, and Cottage on the replicated fleet
// with hedging and faults, where replica rankings are made and used
// many times per query.
func TestReplayGolden(t *testing.T) {
	eng, evs := trainedTwin(t)
	rep := replicatedTwin(eng)
	cases := []struct {
		name string
		eng  *engine.Engine
		pol  engine.Policy
		want string
	}{
		{"cottage", eng, NewCottage(), "768a3f2ed13293b6"},
		{"exhaustive", eng, baselines.Exhaustive{}, "899b61cb0a8009cd"},
		{"replicated", rep, NewCottage(), "18b42fc2c82a10ef"},
	}
	for _, c := range cases {
		res := c.eng.Run(c.pol, evs)
		if got := runDigest(res, c.eng.Cluster); got != c.want {
			t.Errorf("%s: replay digest %s, want %s", c.name, got, c.want)
		}
		if c.name != "replicated" {
			continue
		}
		// The digest only pins these paths if the run took them.
		s := engine.Summarize(res)
		if s.HedgeLegRate == 0 || s.FailoverFrac == 0 {
			t.Errorf("replicated run hedged %v of legs and failed over on %v of queries; want both > 0",
				s.HedgeLegRate, s.FailoverFrac)
		}
	}
}

// TestReplayAllocs pins what one replayed query allocates once the
// engine's buffers are warm: nothing. The per-Run allocations (the
// Outcomes slice, the trace's prediction table) spread over the trace
// stay well under one per query.
func TestReplayAllocs(t *testing.T) {
	eng, evs := trainedTwin(t)
	for _, c := range []struct {
		pol engine.Policy
		max float64
	}{
		{baselines.Exhaustive{}, 0.5},
		{NewCottage(), 0.5},
	} {
		eng.Run(c.pol, evs)
		perQuery := testing.AllocsPerRun(5, func() { eng.Run(c.pol, evs) }) / float64(len(evs))
		t.Logf("%s: %.2f allocations per replayed query", c.pol.Name(), perQuery)
		if perQuery > c.max {
			t.Errorf("%s: %.2f allocations per replayed query, want <= %v", c.pol.Name(), perQuery, c.max)
		}
	}
}

// TestBudgetAllocs pins the live path's Algorithm 1 on a fleet of 16
// reports to its three result slices (survivors, Cut, Selected): the
// sorts allocate nothing, where sort.Slice's reflection swappers did.
func TestBudgetAllocs(t *testing.T) {
	ladder := cluster.DefaultLadder()
	reports := make([]ISNReport, 16)
	for i := range reports {
		cycles := float64(1+i%5) * 4e6
		reports[i] = ISNReport{ISN: i, HasK: i%4 != 0, HasK2: i%3 == 0, ExpQK: float64(i % 3),
			LCurrent: cluster.ServiceMS(cycles, ladder.Default()), LBoosted: cluster.ServiceMS(cycles, ladder.Max()),
			PredCycles: cycles}
	}
	p := NewCottage().Params
	allocs := testing.AllocsPerRun(100, func() {
		p.Budget(reports, nil, ladder, BudgetOptions{Downclock: true}, false)
	})
	if allocs > 3 {
		t.Errorf("Params.Budget on 16 reports made %v allocations, want <= 3", allocs)
	}
}
