package cluster

import (
	"math"
	"testing"

	"cottage/internal/faults"
	"cottage/internal/power"
)

func newDynamic(t *testing.T, shards, r int) *Cluster {
	t.Helper()
	return New(Config{
		NumISNs:         shards,
		Replicas:        r,
		Ladder:          DefaultLadder(),
		Cost:            DefaultCostModel(),
		Net:             DefaultNetwork(),
		DynamicMachines: true,
	})
}

// TestDynamicMachineTime: the machine-time integral follows scale
// events exactly — full fleet while everything is on, fewer node·ms
// after a scale-down, restored after a scale-up.
func TestDynamicMachineTime(t *testing.T) {
	c := newDynamic(t, 2, 3) // 6 nodes
	c.observe(100)
	if got := c.MachineMS(); math.Abs(got-600) > 1e-9 {
		t.Fatalf("machine time with full fleet: %v, want 600", got)
	}
	// Scale both shards to 1 replica at t=100: 4 idle nodes power off
	// immediately (no backlog to drain).
	c.SetAllActiveReplicas(1, 100)
	if got := c.TotalActiveNodes(); got != 2 {
		t.Fatalf("active nodes after scale-down: %d, want 2", got)
	}
	c.observe(200)
	if got := c.MachineMS(); math.Abs(got-800) > 1e-9 {
		t.Fatalf("machine time after scale-down: %v, want 600+2·100=800", got)
	}
	// Scale back up at t=200; all 6 accrue again.
	c.SetAllActiveReplicas(3, 200)
	c.observe(300)
	if got := c.MachineMS(); math.Abs(got-1400) > 1e-9 {
		t.Fatalf("machine time after scale-up: %v, want 800+6·100=1400", got)
	}
}

// TestScaleDownDrains: a deactivated replica finishes its queued work
// before powering off, and its drain time is billed.
func TestScaleDownDrains(t *testing.T) {
	c := newDynamic(t, 1, 2)
	// Load replica row 1 (node 1) with work finishing well past t=0.
	ex := c.Execute(1, 0, 90e6, 1.8, math.Inf(1)) // 50 ms at 1.8 GHz
	if ex.FinishMS <= 10 {
		t.Fatalf("setup: finish %v too early", ex.FinishMS)
	}
	c.SetActiveReplicas(0, 1, 10) // deactivate node 1 at t=10, mid-service
	if !c.ISNs[0].active || c.ISNs[1].active {
		t.Fatalf("active nodes %v, %v; want only node 0", c.ISNs[0].active, c.ISNs[1].active)
	}
	// New work must avoid the draining node even though its sibling's
	// queue is longer... here node 0 is idle, so just check selection.
	if got := c.SelectReplica(0, 10); got != 0 {
		t.Fatalf("selected draining node %d", got)
	}
	c.observe(ex.FinishMS + 100)
	// Node 0 on for the whole horizon; node 1 on until its drain end.
	want := (ex.FinishMS + 100) + ex.FinishMS
	if got := c.MachineMS(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("machine time %v, want %v (drain billed to %v)", got, want, ex.FinishMS)
	}
	// Reactivation restores the node and cancels any pending power-off.
	c.SetActiveReplicas(0, 2, ex.FinishMS+100)
	if !c.ISNs[0].active || !c.ISNs[1].active || c.SelectReplica(0, ex.FinishMS+100) != 0 {
		t.Fatal("reactivation did not restore the replica")
	}
}

// TestDynamicIdlePower: in dynamic mode the idle floor follows machine
// time, so scaling down mid-run costs less energy than staying up.
func TestDynamicIdlePower(t *testing.T) {
	c := newDynamic(t, 2, 2)
	c.SetAllActiveReplicas(1, 0) // half the fleet off from the start
	c.observe(1000)
	got := c.Meter.TotalEnergyMJ(1000)
	// 2 of 4 nodes on for 1000 ms = 1 replica-row unit × 1000 ms.
	want := power.Default().IdleWatts * 1000
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("dynamic idle energy %v, want %v", got, want)
	}
	// Static mode bills the full R× fleet for the same horizon.
	s := newReplicated(t, 2, 2)
	s.observe(1000)
	if sgot := s.Meter.TotalEnergyMJ(1000); sgot <= got*1.9 {
		t.Fatalf("static fleet energy %v not ~2x dynamic %v", sgot, got)
	}
}

// TestStaticModeIgnoresScaling: without DynamicMachines the autoscaler
// hooks are inert — committed figures cannot shift.
func TestStaticModeIgnoresScaling(t *testing.T) {
	c := newReplicated(t, 2, 2)
	c.SetAllActiveReplicas(1, 0)
	if c.TotalActiveNodes() != 4 {
		t.Fatal("static cluster deactivated nodes")
	}
	c.observe(500)
	if got := c.MachineMS(); got != 500*4 {
		t.Fatalf("static machine time %v, want horizon×nodes", got)
	}
}

// TestHedgeFiresOnlyPastDelay: a fast primary never hedges; a slow one
// hedges to the sibling and the earlier response wins.
func TestHedgeFiresOnlyPastDelay(t *testing.T) {
	c := newReplicated(t, 1, 2)
	// Fast request: ~0.56 ms service, hedge delay 10 ms → no hedge.
	ex, hr := c.ExecuteShardHedged(0, 0, 1e6, 1.8, math.Inf(1), 10)
	if hr.Hedged || ex.ISN != 0 {
		t.Fatalf("fast primary hedged: %+v %+v", ex, hr)
	}
	c.Reset()
	// Load node 0 with 100 ms of backlog; selection routes the primary to
	// idle node 1, whose 50 ms of service still blows the 10 ms hedge
	// timer. The hedge lands on node 0 behind the backlog and loses.
	c.Execute(0, 0, 180e6, 1.8, math.Inf(1)) // 100 ms on node 0
	ex, hr = c.ExecuteShardHedged(0, 0, 90e6, 1.8, math.Inf(1), 10)
	if !hr.Hedged {
		t.Fatalf("slow primary did not hedge: %+v", ex)
	}
	if hr.Won || ex.ISN != 1 {
		t.Fatalf("hedge outcome: %+v serving %d", hr, ex.ISN)
	}
	if hr.DuplicateMS <= 0 {
		t.Fatal("losing hedge burned no recorded duplicate work")
	}
}

// TestHedgeWins: when the primary limps (injected straggler delay) and
// the sibling is clean, the hedge's response arrives first, the hedge
// execution is returned, and the primary's wasted work is billed.
func TestHedgeWins(t *testing.T) {
	c := newReplicated(t, 1, 2)
	c.Faults = faults.NewInjector(0)
	c.Faults.SetPlan(0, faults.Plan{SlowMS: 300}) // node 0 limps: GC pause / noisy neighbour
	// Both idle at t=0, tie goes to node 0 → slow primary (~305 ms).
	ex, hr := c.ExecuteShardHedged(0, 0, 9e6, 1.8, math.Inf(1), 20)
	if !hr.Hedged || !hr.Won || ex.ISN != 1 {
		t.Fatalf("expected winning hedge on node 1, got %+v serving %d", hr, ex.ISN)
	}
	if hr.DuplicateMS < 300 {
		t.Fatalf("duplicate work %v should include the primary's 300 ms limp", hr.DuplicateMS)
	}
	if resp := c.ResponseAtAggregatorMS(ex); resp > 30 {
		t.Fatalf("winning hedge response at %v, want ~25 ms", resp)
	}
}

// TestHedgeUnreplicatedNoop: with R=1 there is no sibling to hedge to.
func TestHedgeUnreplicatedNoop(t *testing.T) {
	c := newReplicated(t, 2, 1)
	c.Execute(0, 0, 180e6, 1.8, math.Inf(1))
	ex, hr := c.ExecuteShardHedged(0, 0, 90e6, 1.8, math.Inf(1), 1)
	if hr.Hedged {
		t.Fatalf("R=1 cluster hedged: %+v %+v", ex, hr)
	}
}

// TestHedgeDisabled: negative or infinite delay disables hedging even
// for arbitrarily slow primaries.
func TestHedgeDisabled(t *testing.T) {
	c := newReplicated(t, 1, 2)
	c.Execute(0, 0, 900e6, 1.8, math.Inf(1))
	c.Execute(1, 0, 900e6, 1.8, math.Inf(1))
	for _, d := range []float64{-1, math.Inf(1)} {
		if _, hr := c.ExecuteShardHedged(0, 1, 90e6, 1.8, math.Inf(1), d); hr.Hedged {
			t.Fatalf("delay %v hedged", d)
		}
	}
}

// TestResetRestoresScaleState: Reset reactivates everything and zeroes
// machine-time accounting.
func TestResetRestoresScaleState(t *testing.T) {
	c := newDynamic(t, 2, 2)
	c.SetAllActiveReplicas(1, 0)
	c.observe(100)
	c.Reset()
	if c.TotalActiveNodes() != 4 || c.MachineMS() != 0 {
		t.Fatalf("Reset left scale state: %d active, %v machine-ms",
			c.TotalActiveNodes(), c.MachineMS())
	}
}

// TestDefectEWMAFlagsSilentStraggler: the per-node defect estimate
// converges on an injected straggler's delay and feeds the predictive
// leg signal — even when the straggler's queue is empty — while clean
// siblings stay at zero.
func TestDefectEWMAFlagsSilentStraggler(t *testing.T) {
	c := newDynamic(t, 1, 2)
	c.Faults = faults.NewInjector(0)
	c.Faults.SetPlan(0, faults.Plan{SlowMS: 80})

	if got := c.ISNs[0].defectMS; got != 0 {
		t.Fatalf("defect before any request: %v", got)
	}
	// Serve a few requests on each node, spaced out so queues are empty
	// at every prediction instant.
	tMS := 0.0
	for i := 0; i < 8; i++ {
		c.Execute(0, tMS, 9e6, 1.8, math.Inf(1))
		c.Execute(1, tMS, 9e6, 1.8, math.Inf(1))
		tMS += 500
	}
	if got := c.ISNs[0].defectMS; got < 70 {
		t.Fatalf("straggler defect EWMA %v has not converged toward 80", got)
	}
	if got := c.ISNs[1].defectMS; got != 0 {
		t.Fatalf("clean node accrued defect %v", got)
	}

	// Both queues are empty at tMS, so Eq. 2 alone sees only service
	// time; the defect term is the whole difference.
	sel := c.SelectReplica(0, tMS)
	eq2 := c.EquivalentLatencyMS(sel, tMS, 9e6, 1.8)
	pred := c.ShardPredictedLegMS(0, tMS, 9e6, 1.8)
	if want := eq2 + c.ISNs[sel].defectMS; math.Abs(pred-want) > 1e-9 {
		t.Fatalf("predicted leg %v, want Eq.2 %v + defect %v", pred, eq2, c.ISNs[sel].defectMS)
	}

	// Reset clears the history with the rest of the run state.
	c.Reset()
	if got := c.ISNs[0].defectMS; got != 0 {
		t.Fatalf("defect survived Reset: %v", got)
	}
}
