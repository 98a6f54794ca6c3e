package cluster

import (
	"math"
	"testing"

	"cottage/internal/faults"
	"cottage/internal/power"
)

func newReplicated(t *testing.T, shards, r int) *Cluster {
	t.Helper()
	cfg := Config{
		NumISNs:      shards,
		Replicas:     r,
		Ladder:       DefaultLadder(),
		Cost:         DefaultCostModel(),
		Net:          DefaultNetwork(),
		SpeedFactors: []float64{1, 2}, // shard 1 is a straggler class
	}
	return New(cfg)
}

func TestReplicatedLayout(t *testing.T) {
	c := newReplicated(t, 4, 3)
	if c.Shards() != 4 || c.Replicas() != 3 || len(c.ISNs) != 12 {
		t.Fatalf("layout: %d shards × %d replicas, %d nodes", c.Shards(), c.Replicas(), len(c.ISNs))
	}
	// Replicas of a shard share its speed factor.
	for _, n := range c.Topo().Group(1) {
		if c.ISNs[n].SpeedFactor != 2 {
			t.Fatalf("node %d speed %v, want shard 1's factor 2", n, c.ISNs[n].SpeedFactor)
		}
	}
	// R replica rows are R× the idle hardware.
	if got, want := c.Meter.Model().IdleWatts, 3*power.Default().IdleWatts; got != want {
		t.Fatalf("idle watts %v, want %v", got, want)
	}
	// R=1 stays byte-compatible with the unreplicated fleet.
	c1 := newReplicated(t, 4, 1)
	if len(c1.ISNs) != 4 || c1.Meter.Model().IdleWatts != power.Default().IdleWatts {
		t.Fatal("R=1 changed the unreplicated layout")
	}
}

func TestShardAvailability(t *testing.T) {
	c := newReplicated(t, 2, 2)
	c.Faults = faults.NewInjector(0)
	c.Faults.Crash(0) // shard 0 replica 0
	if c.ShardFailed(0) || c.FailedShardCount() != 0 {
		t.Fatal("shard with a live sibling reported failed")
	}
	if got := c.LiveReplicas(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LiveReplicas(0) = %v, want [2]", got)
	}
	c.Faults.Crash(2) // shard 0 replica 1 — whole group down
	if !c.ShardFailed(0) || c.FailedShardCount() != 1 {
		t.Fatal("fully-failed shard not reported")
	}
	if c.SelectReplica(0, 0) != -1 {
		t.Fatal("selected a replica of a dead shard")
	}
	if !math.IsInf(c.ShardPredictedLegMS(0, 0, 1e6, 1.8), 1) {
		t.Fatal("dead shard's predicted leg latency not +Inf")
	}
	ex := c.ExecuteShard(0, 0, 1e6, 1.8, math.Inf(1))
	if ex.Status != LegFailed || ex.Shard != 0 {
		t.Fatalf("ExecuteShard on dead shard: %+v", ex)
	}
}

func TestExecuteShardRoutesAroundDeadReplica(t *testing.T) {
	c := newReplicated(t, 2, 2)
	c.Faults = faults.NewInjector(0)
	c.Faults.Crash(0) // shard 0 replica 0 dead; sibling is node 2
	ex := c.ExecuteShard(0, 0, 1e6, 1.8, math.Inf(1))
	if ex.Status != LegAnswered {
		t.Fatalf("execution lost: %+v", ex)
	}
	// The selector knew the replica was dead (prober knowledge): the leg
	// lands on the sibling without burning a failover round trip.
	if ex.ISN != 2 || ex.Replica != 1 || ex.Failovers != 0 {
		t.Fatalf("routed to node %d replica %d with %d failovers", ex.ISN, ex.Replica, ex.Failovers)
	}
}

func TestExecuteShardBalancesQueues(t *testing.T) {
	c := newReplicated(t, 1, 2)
	first := c.ExecuteShard(0, 0, 50e6, 1.8, math.Inf(1))
	second := c.ExecuteShard(0, 0, 50e6, 1.8, math.Inf(1))
	if first.ISN == second.ISN {
		t.Fatalf("both requests queued on node %d with an idle sibling", first.ISN)
	}
	if second.QueueMS != 0 {
		t.Fatalf("second request queued %v ms behind an idle sibling", second.QueueMS)
	}
}

func TestExecuteShardFailsOverOnInjectedDrop(t *testing.T) {
	c := newReplicated(t, 1, 2)
	inj := faults.NewInjector(7)
	inj.SetPlan(0, faults.Plan{DropProb: 1}) // replica 0 severs every stream
	c.Faults = inj
	ex := c.ExecuteShard(0, 0, 1e6, 1.8, math.Inf(1))
	if ex.Status != LegAnswered {
		t.Fatalf("failover did not recover the leg: %+v", ex)
	}
	if ex.ISN != 1 || ex.Failovers != 1 {
		t.Fatalf("served by node %d after %d failovers, want sibling after 1", ex.ISN, ex.Failovers)
	}
	// The dropped attempt still charged replica 0 (server keeps serving a
	// severed connection) — power and queue accounting must show it.
	if c.ISNs[0].BusyMS == 0 {
		t.Fatal("dropped attempt burned no busy time")
	}
}

func TestInjectedCrashCountsAsDead(t *testing.T) {
	c := newReplicated(t, 1, 2)
	inj := faults.NewInjector(7)
	inj.Crash(0)
	c.Faults = inj
	// Prober-equivalent knowledge: the crashed plan removes the replica
	// from selection, and with both copies gone the shard is failed.
	if got := c.SelectReplica(0, 0); got != 1 {
		t.Fatalf("SelectReplica = %d, want live sibling 1", got)
	}
	inj.Crash(1)
	if !c.ShardFailed(0) {
		t.Fatal("shard with every replica crashed not failed")
	}
	inj.Revive(1)
	if c.ShardFailed(0) {
		t.Fatal("revived replica still counted dead")
	}
}
