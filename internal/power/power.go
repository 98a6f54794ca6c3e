// Package power models CPU package power for the simulated search
// cluster, standing in for the Intel RAPL counters the paper reads
// (Section V-C). The model is the standard DVFS decomposition
//
//	P_pkg(t) = P_idle + Σ_busy-cores P_static + P_maxdyn·(f/f_max)^3
//
// with a cubic frequency-dependent dynamic term (dynamic power scales with
// f·V², and voltage scales roughly linearly with frequency in the DVFS
// range). The "core" here is one ISN — a whole multithreaded Solr
// instance in the paper's testbed — so the per-ISN active power is larger
// than a single hardware core's. Constants are calibrated so that a
// 16-ISN cluster replaying the Wikipedia trace lands near the paper's
// measurements: ~14.5 W idle and ~36 W for exhaustive search (Fig. 14).
// Only the *relative* power of the selection policies matters for the
// reproduction; the calibration pins the scale.
package power

import "fmt"

// Model holds the package-power constants. All power values are watts,
// frequencies GHz, energies millijoules (mW·ms) unless noted.
type Model struct {
	// IdleWatts is the package power with every core idle (the paper's
	// platform idles at 14.53 W).
	IdleWatts float64
	// StaticWatts is the per-core cost of being awake and executing,
	// independent of frequency (uncore activity, caches).
	StaticWatts float64
	// MaxDynWatts is the per-core dynamic power at f = MaxFreq.
	MaxDynWatts float64
	// MaxFreq is the frequency at which the dynamic term reaches
	// MaxDynWatts.
	MaxFreq float64
}

// Default returns the calibrated model described in the package comment.
func Default() Model {
	return Model{
		IdleWatts:   14.53,
		StaticWatts: 1.2,
		MaxDynWatts: 16.0,
		MaxFreq:     2.7,
	}
}

// CoreActiveWatts returns the incremental power of one core running at
// frequency f (GHz), on top of the package idle floor.
func (m Model) CoreActiveWatts(f float64) float64 {
	if f <= 0 {
		panic(fmt.Sprintf("power: non-positive frequency %v", f))
	}
	r := f / m.MaxFreq
	return m.StaticWatts + m.MaxDynWatts*r*r*r
}

// BusyEnergyMJ returns the energy (millijoules) consumed by one core
// running for durationMS milliseconds at frequency f, excluding the idle
// floor (which Meter accounts once for the whole package).
func (m Model) BusyEnergyMJ(f, durationMS float64) float64 {
	if durationMS < 0 {
		panic("power: negative duration")
	}
	return m.CoreActiveWatts(f) * durationMS
}

// Meter integrates a cluster's energy over a simulated run. It is not
// safe for concurrent use; the simulator is single-threaded virtual time.
type Meter struct {
	model  Model
	busyMJ float64 // accumulated above-idle energy
	// freqs and freqMJ attribute busy energy to the frequency it was
	// burned at, so the harness can show how much of a policy's power is
	// boost energy vs default-frequency work: freqMJ[i] was burned at
	// freqs[i], in the order the frequencies were first charged. A run
	// charges at most the ladder's few levels, so a scan finds the slot.
	freqs, freqMJ []float64
	// dynamicIdle switches the idle floor from "IdleWatts for the whole
	// horizon" to explicitly-integrated machine time (AddIdleMachineMS):
	// the accounting a fleet whose machine count changes mid-run needs.
	// model.IdleWatts is then the per-machine-unit idle power.
	dynamicIdle   bool
	idleMachineMS float64
}

// NewMeter creates a meter over model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model}
}

// AddBusy records one core busy for durationMS at frequency f.
func (mt *Meter) AddBusy(f, durationMS float64) {
	e := mt.model.BusyEnergyMJ(f, durationMS)
	mt.busyMJ += e
	for i, g := range mt.freqs {
		if g == f {
			mt.freqMJ[i] += e
			return
		}
	}
	mt.freqs = append(mt.freqs, f)
	mt.freqMJ = append(mt.freqMJ, e)
}

// ByFrequency returns a copy of the busy-energy attribution per
// frequency (GHz -> millijoules).
func (mt *Meter) ByFrequency() map[float64]float64 {
	out := make(map[float64]float64, len(mt.freqs))
	for i, f := range mt.freqs {
		out[f] = mt.freqMJ[i]
	}
	return out
}

// Attribution returns copies of the busy-energy attribution as parallel
// slices, in the order the frequencies were first charged: a fixed
// order, so a sum over it repeats bit for bit where a map range does
// not.
func (mt *Meter) Attribution() (freqs, mj []float64) {
	return append([]float64(nil), mt.freqs...), append([]float64(nil), mt.freqMJ...)
}

// SetDynamicIdle switches the meter to integrated machine-time idle
// accounting: the idle floor becomes IdleWatts × the machine-unit time
// recorded via AddIdleMachineMS, instead of IdleWatts × horizon. An
// autoscaled fleet uses this so machines that are scaled away stop
// burning idle power.
func (mt *Meter) SetDynamicIdle(on bool) { mt.dynamicIdle = on }

// AddIdleMachineMS records machineUnits machines idling (or serving —
// the floor is paid either way) for durationMS. Only meaningful in
// dynamic-idle mode; a machine unit is whatever granularity the caller
// calibrated IdleWatts for.
func (mt *Meter) AddIdleMachineMS(machineUnits, durationMS float64) {
	if durationMS < 0 {
		panic("power: negative duration")
	}
	mt.idleMachineMS += machineUnits * durationMS
}

// TotalEnergyMJ returns the package energy over a horizon of horizonMS
// milliseconds: the idle floor for the whole horizon (or, in
// dynamic-idle mode, for the integrated machine time) plus accumulated
// busy energy.
func (mt *Meter) TotalEnergyMJ(horizonMS float64) float64 {
	if horizonMS < 0 {
		panic("power: negative horizon")
	}
	if mt.dynamicIdle {
		return mt.model.IdleWatts*mt.idleMachineMS + mt.busyMJ
	}
	return mt.model.IdleWatts*horizonMS + mt.busyMJ
}

// AveragePowerWatts returns mean package power over the horizon —
// the number Fig. 14 plots.
func (mt *Meter) AveragePowerWatts(horizonMS float64) float64 {
	if horizonMS <= 0 {
		panic("power: non-positive horizon")
	}
	return mt.TotalEnergyMJ(horizonMS) / horizonMS
}

// BusyEnergyMJ returns only the above-idle energy recorded so far.
func (mt *Meter) BusyEnergyMJ() float64 { return mt.busyMJ }

// Reset clears accumulated energy.
func (mt *Meter) Reset() {
	mt.busyMJ = 0
	mt.freqs, mt.freqMJ = mt.freqs[:0], mt.freqMJ[:0]
	mt.idleMachineMS = 0
}

// Model returns the meter's power model.
func (mt *Meter) Model() Model { return mt.model }
