package harness

import (
	"testing"

	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/faults"
)

// TestReplicationFailureContrast pins the acceptance claim of the
// replication sweep: with R=2 a single permanently failed replica costs
// nothing — no query loses a leg and mean quality matches the fault-free
// run to within straggler noise — while the same failure at R=1
// reproduces the degraded-mode quality floor (the dead shard's top-K
// documents are unrecoverable).
func TestReplicationFailureContrast(t *testing.T) {
	s := testSetup(t)
	pol := core.NewCottage()
	pol.Degraded = core.DegradedConservative
	n := len(s.Engine.Shards)

	build := func(r int) *engine.Engine {
		cfg := s.Config.EngineCfg
		cfg.Cluster.Replicas = r
		eng := engine.New(s.Engine.Shards, cfg)
		eng.Fleet = s.Engine.Fleet
		return eng
	}
	run := func(eng *engine.Engine, failed int) engine.Summary {
		eng.Cluster.ClearFaults()
		topo := eng.Cluster.Topo()
		inj := faults.NewInjector(0)
		for _, sh := range faults.PickVictims(2022, failed, n) {
			inj.Crash(topo.Node(sh, 0))
		}
		eng.Cluster.Faults = inj
		return engine.Summarize(eng.Run(pol, s.WikiEval))
	}

	r2 := build(2)
	r2clean := run(r2, 0)
	r2one := run(r2, 1)
	if got := r2.Cluster.FailedShardCount(); got != 0 {
		t.Fatalf("R=2 with one dead replica lost %d shard groups", got)
	}
	if r2one.FailedFrac != 0 {
		t.Fatalf("R=2 with one dead replica lost legs: FailedFrac=%v", r2one.FailedFrac)
	}
	if r2one.MeanPAtK < r2clean.MeanPAtK-0.005 {
		t.Fatalf("R=2 single failure cost quality: %v vs fault-free %v",
			r2one.MeanPAtK, r2clean.MeanPAtK)
	}

	// At R=1 the dead shard IS the group: it is known-dead at selection
	// time, so Cottage excludes it rather than dispatching into silence —
	// the cost is the unrecoverable quality floor, not failed queries.
	r1 := build(1)
	r1clean := run(r1, 0)
	r1one := run(r1, 1)
	if got := r1.Cluster.FailedShardCount(); got != 1 {
		t.Fatalf("R=1 with one dead replica should lose one shard group, lost %d", got)
	}
	if r1one.MeanPAtK >= r1clean.MeanPAtK-0.005 {
		t.Fatalf("R=1 single failure should drop quality: %v vs fault-free %v",
			r1one.MeanPAtK, r1clean.MeanPAtK)
	}
}
