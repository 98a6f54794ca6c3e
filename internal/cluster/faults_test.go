package cluster

import (
	"math"
	"testing"

	"cottage/internal/faults"
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
	exec := c.Execute(3, 0, 10e6, c.Ladder.Default(), math.Inf(1))
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
	exec = c.Execute(3, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	if exec.Status != LegAnswered {
		t.Fatalf("revived ISN execution: %+v", exec)
	}
}

// TestExtraDelay: a fixed slowdown lengthens service by exactly its
// delay and is charged as busy (the limping node still burns power).
func TestExtraDelay(t *testing.T) {
	c := New(DefaultConfig())
	base := c.Execute(0, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	c.Faults = faults.NewInjector(0)
	c.Faults.SetPlan(1, faults.Plan{SlowMS: 25})
	slow := c.Execute(1, 0, 10e6, c.Ladder.Default(), math.Inf(1))
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
