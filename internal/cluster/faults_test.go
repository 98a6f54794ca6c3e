package cluster

import (
	"math"
	"testing"
)

// TestFailedISN: a dead node does no work, burns no power, and marks the
// execution failed; revival restores service.
func TestFailedISN(t *testing.T) {
	c := New(DefaultConfig())
	c.FailISN(3)
	if !c.ISNs[3].Failed || c.FailedCount() != 1 {
		t.Fatal("FailISN did not register")
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
	c.ISNs[3].Failed = false
	exec = c.Execute(3, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	if exec.Status != LegAnswered {
		t.Fatalf("revived ISN execution: %+v", exec)
	}
}

// TestExtraDelay: injected virtual-time slowdown lengthens service and
// is charged as busy (the limping node still burns power).
func TestExtraDelay(t *testing.T) {
	c := New(DefaultConfig())
	base := c.Execute(0, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	c.SetExtraDelayMS(1, 25)
	slow := c.Execute(1, 0, 10e6, c.Ladder.Default(), math.Inf(1))
	if got := slow.ServiceMS - base.ServiceMS; math.Abs(got-25) > 1e-9 {
		t.Fatalf("extra delay added %.3f ms, want 25", got)
	}
}

// TestFaultsSurviveReset: fault state is configuration, not accumulated
// statistics — Reset keeps it (availability sweeps inject once, replay
// many policies), ClearFaults removes it.
func TestFaultsSurviveReset(t *testing.T) {
	c := New(DefaultConfig())
	c.FailISN(2)
	c.SetExtraDelayMS(5, 10)
	c.Reset()
	if !c.ISNs[2].Failed || c.ISNs[5].ExtraDelayMS != 10 {
		t.Fatal("Reset cleared injected faults")
	}
	c.ClearFaults()
	if c.FailedCount() != 0 || c.ISNs[5].ExtraDelayMS != 0 {
		t.Fatal("ClearFaults left fault state behind")
	}
}

// TestFailTimeoutDefault: the failure-detection timeout defaults on.
func TestFailTimeoutDefault(t *testing.T) {
	c := New(DefaultConfig())
	if c.FailTimeoutMS <= 0 {
		t.Fatal("no default failure-detection timeout")
	}
	cfg := DefaultConfig()
	cfg.FailTimeoutMS = 42
	if got := New(cfg).FailTimeoutMS; got != 42 {
		t.Fatalf("FailTimeoutMS override ignored: %v", got)
	}
}
