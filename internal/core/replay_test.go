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
	"cottage/internal/trace"
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

// edgeTwin is the fixture on an R=2 fleet that takes the attempt
// endings replicatedTwin does not: a bounded admission queue (LegShed),
// a seeded at-rest rot schedule with scrubbing and repair (integrity
// quarantine, LegCorrupt), anytime truncation of budget misses
// (LegTruncated, replayed from an Execution's WorkFrac), and predictive
// hedging (duplicates sent at dispatch). Both copies of shard 0 and one
// of shard 2 are slowed, so backlogs outlast tight budgets.
func edgeTwin(eng *engine.Engine, horizonMS float64) *engine.Engine {
	cfg := engine.DefaultConfig()
	cfg.NumShards = len(eng.Shards)
	cfg.Cluster.Replicas = 2
	edge := engine.New(eng.Shards, cfg)
	edge.Fleet = eng.Fleet
	edge.Anytime = true
	edge.Hedge = cluster.Hedge{Predictive: true, ThresholdMS: 4}
	c := edge.Cluster
	c.MaxQueueMS = 2
	c.ScrubEpochMS = 400
	c.RepairMS = 150
	c.Rot = faults.CorruptionSchedule(11, len(c.ISNs), horizonMS, 2)
	topo := c.Topo()
	inj := faults.NewInjector(23)
	inj.SetPlan(topo.Node(0, 0), faults.Plan{SlowMS: 40, SlowJitterMS: 10})
	inj.SetPlan(topo.Node(0, 1), faults.Plan{SlowMS: 40, SlowJitterMS: 10})
	inj.SetPlan(topo.Node(2, 1), faults.Plan{SlowMS: 15, SlowJitterMS: 5})
	c.Faults = inj
	return edge
}

// tieredCottage is Cottage under a two-tier SLA: even query IDs get at
// most 30 ms, odd ones at most 2 ms. In anytime mode a request is shed
// only when its backlog outlasts its own deadline, which Cottage's
// Eq. 2 budget never lets happen on the copy it plans for; a tight query
// behind a loose one's backlog does.
type tieredCottage struct{ *Cottage }

func (c tieredCottage) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	d := c.Cottage.Decide(e, q, nowMS)
	limit := 2.0
	if q.ID%2 == 0 {
		limit = 30
	}
	d.BudgetMS = math.Min(d.BudgetMS, limit)
	return d
}

// TestReplayGolden pins four replays bit for bit: Cottage and exhaustive
// search on the unreplicated fleet, and Cottage on two replicated fleets.
// The first three digests were computed before the replay path reused
// its buffers, the edge digest before executions were written in place.
// The replicated fleet hedges on a timer and fails over past crashes,
// drops, corruption and slowdowns; the edge fleet sheds, quarantines
// rotted copies, truncates anytime answers and hedges predictively.
func TestReplayGolden(t *testing.T) {
	eng, evs := trainedTwin(t)
	rep := replicatedTwin(eng)
	edge := edgeTwin(eng, evs[len(evs)-1].Query.ArrivalMS)
	cases := []struct {
		name string
		eng  *engine.Engine
		pol  engine.Policy
		want string
	}{
		{"cottage", eng, NewCottage(), "768a3f2ed13293b6"},
		{"exhaustive", eng, baselines.Exhaustive{}, "899b61cb0a8009cd"},
		{"replicated", rep, NewCottage(), "18b42fc2c82a10ef"},
		{"edge", edge, tieredCottage{NewCottage()}, "92cc510892c7adb8"},
	}
	for _, c := range cases {
		res := c.eng.Run(c.pol, evs)
		if got := runDigest(res, c.eng.Cluster); got != c.want {
			t.Errorf("%s: replay digest %s, want %s", c.name, got, c.want)
		}
		// The digest only pins these paths if the run took them.
		s := engine.Summarize(res)
		switch c.name {
		case "replicated":
			if s.HedgeLegRate == 0 || s.FailoverFrac == 0 {
				t.Errorf("replicated run hedged %v of legs and failed over on %v of queries; want both > 0",
					s.HedgeLegRate, s.FailoverFrac)
			}
		case "edge":
			shed := 0
			for _, o := range res.Outcomes {
				shed += o.ShedISNs
			}
			ist := c.eng.Cluster.IntegrityStats()
			t.Logf("edge: shed %d legs, %d integrity bounces (%d query, %d scrub detections, %d repairs), truncated on %v and hedged %v of legs (%v won)",
				shed, ist.CorruptRejects, ist.QueryDetections, ist.ScrubDetections, ist.Repairs, s.TruncatedFrac, s.HedgeLegRate, s.HedgeWinFrac)
			if shed == 0 || ist.CorruptRejects == 0 || s.TruncatedFrac == 0 || s.HedgeLegRate == 0 {
				t.Errorf("edge run shed %d legs, bounced %d on integrity, truncated on %v of queries and hedged %v of legs; want all > 0",
					shed, ist.CorruptRejects, s.TruncatedFrac, s.HedgeLegRate)
			}
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
