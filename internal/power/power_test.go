package power

import (
	"math"
	"slices"
	"testing"
)

func TestCoreActiveWattsMonotone(t *testing.T) {
	m := Default()
	prev := 0.0
	for _, f := range []float64{1.2, 1.5, 1.8, 2.1, 2.4, 2.7} {
		w := m.CoreActiveWatts(f)
		if w <= prev {
			t.Fatalf("power not increasing at %v GHz", f)
		}
		prev = w
	}
}

func TestCubicScaling(t *testing.T) {
	m := Model{IdleWatts: 10, StaticWatts: 0, MaxDynWatts: 8, MaxFreq: 2}
	// Pure dynamic: half frequency should cost 1/8 the dynamic power.
	full := m.CoreActiveWatts(2)
	half := m.CoreActiveWatts(1)
	if math.Abs(full/half-8) > 1e-9 {
		t.Errorf("cubic scaling broken: %v vs %v", full, half)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := Model{IdleWatts: 10, StaticWatts: 1, MaxDynWatts: 3, MaxFreq: 2}
	mt := NewMeter(m)
	// One core busy 100 ms at max frequency: 4 W * 100 ms = 400 mJ busy.
	mt.AddBusy(2, 100)
	if got := mt.BusyEnergyMJ(); math.Abs(got-400) > 1e-9 {
		t.Errorf("busy energy = %v, want 400", got)
	}
	// Over a 1000 ms horizon: idle 10 W * 1000 ms + 400 = 10400 mJ.
	if got := mt.TotalEnergyMJ(1000); math.Abs(got-10400) > 1e-9 {
		t.Errorf("total energy = %v", got)
	}
	if got := mt.AveragePowerWatts(1000); math.Abs(got-10.4) > 1e-9 {
		t.Errorf("average power = %v", got)
	}
	mt.Reset()
	if mt.BusyEnergyMJ() != 0 {
		t.Error("reset did not clear")
	}
}

func TestIdleClusterAveragesIdlePower(t *testing.T) {
	mt := NewMeter(Default())
	if got := mt.AveragePowerWatts(500); math.Abs(got-Default().IdleWatts) > 1e-9 {
		t.Errorf("idle average = %v", got)
	}
}

func TestCalibrationNearPaper(t *testing.T) {
	// Sanity-check the calibration targets: 16 ISNs at 1.8 GHz with ~20%
	// utilization (the default trace's exhaustive load) should land near
	// the paper's exhaustive-search 36 W, and idle must match the paper's
	// 14.53 W.
	m := Default()
	if m.IdleWatts != 14.53 {
		t.Errorf("idle = %v", m.IdleWatts)
	}
	pkg := m.IdleWatts + 16*0.20*m.CoreActiveWatts(1.8)
	if pkg < 30 || pkg > 42 {
		t.Errorf("exhaustive-like package power %v W outside 30-42 W", pkg)
	}
}

func TestPanics(t *testing.T) {
	m := Default()
	mt := NewMeter(m)
	cases := []func(){
		func() { m.CoreActiveWatts(0) },
		func() { m.BusyEnergyMJ(1.8, -1) },
		func() { mt.TotalEnergyMJ(-1) },
		func() { mt.AveragePowerWatts(0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestByFrequencyAttribution(t *testing.T) {
	mt := NewMeter(Default())
	mt.AddBusy(1.8, 100)
	mt.AddBusy(2.7, 50)
	mt.AddBusy(1.8, 10)
	by := mt.ByFrequency()
	if len(by) != 2 {
		t.Fatalf("got %d frequency buckets", len(by))
	}
	total := 0.0
	for _, e := range by {
		total += e
	}
	if math.Abs(total-mt.BusyEnergyMJ()) > 1e-9 {
		t.Errorf("attribution %v does not sum to busy energy %v", total, mt.BusyEnergyMJ())
	}
	// Mutating the copy must not affect the meter.
	by[1.8] = 0
	if mt.ByFrequency()[1.8] == 0 {
		t.Error("ByFrequency returned internal state")
	}
	// Attribution lists the frequencies in the order they were first
	// charged, so sums over it repeat bit for bit.
	freqs, mj := mt.Attribution()
	if !slices.Equal(freqs, []float64{1.8, 2.7}) || mj[0] != mt.ByFrequency()[1.8] || mj[1] != by[2.7] {
		t.Errorf("Attribution() = %v, %v; want [1.8 2.7] in first-charged order with ByFrequency's energies", freqs, mj)
	}
	freqs[0], mj[0] = 0, 0
	if f, _ := mt.Attribution(); f[0] != 1.8 {
		t.Error("Attribution returned internal state")
	}
	mt.Reset()
	if f, e := mt.Attribution(); len(mt.ByFrequency()) != 0 || len(f) != 0 || len(e) != 0 {
		t.Error("reset did not clear attribution")
	}
	mt.AddBusy(2.7, 1)
	mt.AddBusy(1.2, 1)
	if f, _ := mt.Attribution(); !slices.Equal(f, []float64{2.7, 1.2}) {
		t.Errorf("after Reset, Attribution() order %v, want [2.7 1.2]", f)
	}
}
