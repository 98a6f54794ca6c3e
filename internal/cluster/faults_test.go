package cluster

import (
	"math"
	"testing"

	"cottage/internal/faults"
	"cottage/internal/xrand"
)

// TestFailedISN: a crashed node does no work, burns no power, and marks
// the execution failed; revival restores service.
func TestFailedISN(t *testing.T) {
	c := New(DefaultConfig())
	c.Faults = faults.NewInjector(0)
	c.Faults.Crash(3)
	if c.FailedCount() != 1 {
		t.Fatal("crash did not register")
	}
	before := c.Meter.BusyEnergyMJ()
	exec := execute(c, 3, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	if exec.Status != LegFailed {
		t.Fatalf("dead ISN execution: %+v", exec)
	}
	if exec.ServiceMS != 0 || c.ISNs[3].BusyMS != 0 {
		t.Fatal("dead ISN charged busy time")
	}
	if c.Meter.BusyEnergyMJ() != before {
		t.Fatal("dead ISN burned active power")
	}
	c.Faults.Revive(3)
	exec = execute(c, 3, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	if exec.Status != LegAnswered {
		t.Fatalf("revived ISN execution: %+v", exec)
	}
}

// TestExtraDelay: a fixed slowdown lengthens service by exactly its
// delay and is charged as busy (the limping node still burns power).
func TestExtraDelay(t *testing.T) {
	c := New(DefaultConfig())
	base := execute(c, 0, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	c.Faults = faults.NewInjector(0)
	c.Faults.SetPlan(1, faults.Plan{SlowMS: 25})
	slow := execute(c, 1, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	if got := slow.ServiceMS - base.ServiceMS; math.Abs(got-25) > 1e-9 {
		t.Fatalf("extra delay added %.3f ms, want 25", got)
	}
	if slow.Status != LegAnswered || c.ISNs[1].BusyMS < 25 {
		t.Fatalf("slow execution %+v, busy %.3f ms", slow, c.ISNs[1].BusyMS)
	}
}

// TestFaultsSurviveReset: fault state is configuration, not accumulated
// statistics — Reset keeps it (availability sweeps inject once, replay
// many policies), ClearFaults removes it.
func TestFaultsSurviveReset(t *testing.T) {
	c := New(DefaultConfig())
	inj := faults.NewInjector(0)
	inj.Crash(2)
	c.Faults = inj
	c.Reset()
	if c.Faults != inj || c.FailedCount() != 1 {
		t.Fatal("Reset cleared injected faults")
	}
	c.ClearFaults()
	if c.Faults != nil || c.FailedCount() != 0 {
		t.Fatal("ClearFaults left fault state behind")
	}
}

// TestReusedExecutionMatchesFresh: Execute, ExecuteShard and
// ExecuteShardHedged write every field of the attempt they report, on
// every path, so one Execution reused across calls and filled with junk
// before each reads exactly as a fresh one does. The schedule — a dead
// shard, drops, corrupt replies, slowdowns, scheduled rot with scrubbing
// and repair, a bounded queue, and deadlines from tight to none — takes
// every ending the cluster reports, the early returns that write an
// attempt ended on arrival among them.
func TestReusedExecutionMatchesFresh(t *testing.T) {
	type step struct {
		ex Execution
		hr HedgeResult
	}
	run := func(reuse bool) []step {
		cfg := DefaultConfig()
		cfg.NumISNs, cfg.Replicas = 4, 2
		c := New(cfg)
		c.MaxQueueMS = 3
		c.ScrubEpochMS, c.RepairMS = 200, 80
		c.Rot = faults.CorruptionSchedule(5, len(c.ISNs), 2000, 3)
		topo := c.Topo()
		inj := faults.NewInjector(9)
		inj.Crash(topo.Node(3, 0))
		inj.Crash(topo.Node(3, 1))
		inj.SetPlan(topo.Node(0, 0), faults.Plan{DropProb: 0.3, SlowMS: 4})
		inj.SetPlan(topo.Node(1, 1), faults.Plan{CorruptProb: 0.3})
		inj.SetPlan(topo.Node(2, 0), faults.Plan{SlowMS: 20, SlowJitterMS: 10})
		c.Faults = inj
		c.Reset()
		junk := Execution{ISN: -1, StartMS: -2, FinishMS: -3, ServiceMS: -4, Freq: -5, Status: LegStatus(99),
			WorkFrac: -6, QueueMS: -7, Shard: -8, Replica: -9, Failovers: -10}
		var reused Execution
		rng := xrand.New(17)
		steps := make([]step, 0, 3000)
		tMS := 0.0
		for i := 0; i < cap(steps); i++ {
			tMS += 2 * rng.Float64()
			cycles := (1 + 20*rng.Float64()) * 1e6
			deadline := math.Inf(1)
			if rng.Intn(4) > 0 {
				deadline = tMS + 1 + 30*rng.Float64()
			}
			ex := new(Execution)
			if reuse {
				reused = junk
				ex = &reused
			}
			var hr HedgeResult
			switch rng.Intn(3) {
			case 0:
				c.Execute(ex, rng.Intn(len(c.ISNs)), tMS, cycles, 1.8, deadline)
			case 1:
				c.ExecuteShard(ex, rng.Intn(c.Shards()), tMS, cycles, 1.8, deadline)
			default:
				hr = c.ExecuteShardHedged(ex, rng.Intn(c.Shards()), tMS, cycles, 1.8, deadline, []float64{-1, 0, 1.5}[rng.Intn(3)])
			}
			steps = append(steps, step{*ex, hr})
		}
		return steps
	}
	fresh, reused := run(false), run(true)
	seen := map[LegStatus]int{}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("step %d: reused execution reads %+v, fresh %+v", i, reused[i], fresh[i])
		}
		seen[fresh[i].ex.Status]++
	}
	for _, st := range []LegStatus{LegAnswered, LegDropped, LegCorrupt, LegFailed, LegSevered, LegShed} {
		if seen[st] == 0 {
			t.Errorf("no attempt ended with status %d; the schedule must take every path (saw %v)", st, seen)
		}
	}
}
