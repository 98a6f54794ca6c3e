// Package autoscale plans per-shard replica counts for the simulated
// search fleet and closes the loop against live queue and latency
// signals.
//
// The capacity planner is a classic M/M/1-per-replica sizing rule: a
// shard receiving λ queries/s, spread over R interchangeable replicas
// by join-the-shortest-queue selection, runs each replica at
// utilization ρ = (λ/R)·S (S the mean service time). The M/M/1
// response-time distribution is exponential with mean S/(1−ρ), so the
// 99th percentile is ≈ S·ln(100)/(1−ρ). PlanReplicas picks the
// smallest R whose predicted p99 meets the SLO with utilization
// headroom — the fewest machines that hold the tail.
//
// The model is deliberately crude (real service times are heavier than
// exponential, and the fleet is not work-conserving across replicas),
// which is exactly why the Controller exists: it re-plans on a cadence
// from *measured* arrival rates and service-time EWMAs, boosts on live
// queue depth the model missed, and applies hysteresis plus a
// scale-down cooldown so a noisy signal cannot flap machines on and
// off. Everything is pure float arithmetic on the caller's virtual
// clock — no wall time, no goroutines — so twin replays stay
// deterministic.
package autoscale

import (
	"fmt"
	"math"
)

// PlannerConfig parameterizes the queueing-model capacity plan.
type PlannerConfig struct {
	// SLOp99MS is the per-shard p99 response-time target in
	// milliseconds. Zero disables the latency term (plan on utilization
	// alone).
	SLOp99MS float64
	// MaxReplicas caps R at the hardware that exists (default 1).
	MaxReplicas int
}

// The planner's and controller's fixed tuning. They are typed so that
// 1-serviceAlpha is the float64 subtraction from the rounded 0.2, not
// an untyped constant folded exactly to 0.8.
const (
	// utilizationCap is the maximum per-replica utilization ρ a plan
	// tolerates. Above it the queueing delay explodes and the p99
	// formula is meaningless anyway.
	utilizationCap float64 = 0.85
	// hysteresisFrac widens the gap between the scale-up and scale-down
	// thresholds: a shard only scales down if the plan recomputed
	// against an SLO tightened by this fraction *still* wants fewer
	// replicas. Without it a target hovering at a plan boundary flaps
	// machines every cooldown.
	hysteresisFrac float64 = 0.15
	// serviceAlpha is the service-time EWMA weight.
	serviceAlpha float64 = 0.2
	// rateAlpha blends the newest windowed arrival-rate measurement into
	// the running estimate.
	rateAlpha float64 = 0.5
)

func (p PlannerConfig) withDefaults() PlannerConfig {
	if p.MaxReplicas < 1 {
		p.MaxReplicas = 1
	}
	return p
}

// P99MS is the M/M/1 99th-percentile response time for mean service
// time serviceMS at utilization rho: the response-time distribution is
// exponential with mean S/(1−ρ), so the p-quantile is −ln(1−p) times
// that mean.
func P99MS(serviceMS, rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return serviceMS * math.Log(100) / (1 - rho)
}

// PlanReplicas returns the smallest replica count R ≤ MaxReplicas that
// keeps per-replica utilization under utilizationCap and predicted p99 within
// the SLO, or MaxReplicas when even the full fleet cannot (the
// controller then runs saturated and the SLO-miss shows up in the
// measured tail, where it belongs). With no load or no service data it
// returns 1 — capacity for a signal that isn't there yet is waste.
func PlanReplicas(cfg PlannerConfig, arrivalQPS, serviceMS float64) int {
	cfg = cfg.withDefaults()
	if arrivalQPS <= 0 || serviceMS <= 0 {
		return 1
	}
	for r := 1; r <= cfg.MaxReplicas; r++ {
		rho := arrivalQPS * serviceMS / 1000 / float64(r)
		if rho >= utilizationCap {
			continue
		}
		if cfg.SLOp99MS <= 0 || P99MS(serviceMS, rho) <= cfg.SLOp99MS {
			return r
		}
	}
	return cfg.MaxReplicas
}

// Config parameterizes the closed-loop Controller.
type Config struct {
	Planner PlannerConfig
	// ReplanIntervalMS is the control cadence (default 2000 ms of
	// virtual time). Replan calls before the cadence elapses are no-ops.
	ReplanIntervalMS float64
	// ScaleDownCooldownMS is the minimum time since a shard's last scale
	// event before it may scale down (default 3× the replan interval).
	// Scale-ups are never delayed — under-capacity costs latency now,
	// over-capacity only costs watts.
	ScaleDownCooldownMS float64
}

func (c Config) withDefaults() Config {
	c.Planner = c.Planner.withDefaults()
	if c.ReplanIntervalMS <= 0 {
		c.ReplanIntervalMS = 2000
	}
	if c.ScaleDownCooldownMS <= 0 {
		c.ScaleDownCooldownMS = 3 * c.ReplanIntervalMS
	}
	return c
}

// Change is one scale event the controller decided on.
type Change struct {
	TMS      float64
	Shard    int
	From, To int
}

// String renders a change for plan logs and golden comparisons.
func (ch Change) String() string {
	return fmt.Sprintf("t=%.0fms shard=%d %d->%d", ch.TMS, ch.Shard, ch.From, ch.To)
}

// Controller is the closed-loop autoscaler: it accumulates arrival and
// service observations between replans and, on each cadence tick,
// re-runs the capacity plan per shard with hysteresis, cooldown, and
// the queue-depth boost. Not safe for concurrent use; the twin's
// replay loop is single-threaded virtual time.
type Controller struct {
	cfg          Config
	current      []int
	svcEWMA      []float64
	arrivals     int
	rateQPS      float64
	haveRate     bool
	lastReplanMS float64
	lastChangeMS []float64
	log          []Change
}

// New builds a controller for shards shards, each starting at one
// active replica. The caller is responsible for starting the fleet in
// the same state.
func New(cfg Config, shards int) *Controller {
	if shards <= 0 {
		panic("autoscale: non-positive shard count")
	}
	c := &Controller{
		cfg:          cfg.withDefaults(),
		current:      make([]int, shards),
		svcEWMA:      make([]float64, shards),
		lastChangeMS: make([]float64, shards),
	}
	for s := range c.current {
		c.current[s] = 1
	}
	return c
}

// RecordArrival counts one query arrival (a query fans out to every
// shard, so the fleet arrival rate is each shard's arrival rate).
func (c *Controller) RecordArrival() { c.arrivals++ }

// RecordService folds one completed execution's service time into the
// shard's EWMA. Non-positive observations carry no signal and are
// dropped.
func (c *Controller) RecordService(shard int, serviceMS float64) {
	if serviceMS <= 0 {
		return
	}
	if c.svcEWMA[shard] == 0 {
		c.svcEWMA[shard] = serviceMS
		return
	}
	c.svcEWMA[shard] = serviceAlpha*serviceMS + (1-serviceAlpha)*c.svcEWMA[shard]
}

// Log returns every scale event decided so far, in order — the plan
// trail determinism tests compare byte for byte.
func (c *Controller) Log() []Change { return c.log }

// Due reports whether the replan cadence has elapsed at tMS — a cheap
// pre-check so hot loops only gather queue-depth signals when a Replan
// will actually run.
func (c *Controller) Due(tMS float64) bool {
	return tMS >= c.lastReplanMS+c.cfg.ReplanIntervalMS
}

// Replan runs one control step at virtual time tMS, given each shard's
// live queue depth (Eq. 2's backlog term, in ms; nil means no queue
// signal). It returns the scale changes decided this step (nil when
// the cadence has not elapsed or nothing changed). The caller applies
// the changes to the fleet.
func (c *Controller) Replan(tMS float64, queueMS []float64) []Change {
	if tMS < c.lastReplanMS+c.cfg.ReplanIntervalMS {
		return nil
	}
	elapsed := tMS - c.lastReplanMS
	inst := float64(c.arrivals) / elapsed * 1000
	if !c.haveRate {
		c.rateQPS = inst
		c.haveRate = true
	} else {
		c.rateQPS = rateAlpha*inst + (1-rateAlpha)*c.rateQPS
	}
	c.arrivals = 0
	c.lastReplanMS = tMS

	// The queue boost: a shard whose selected replica already holds more
	// than half the SLO of backlog gets one extra replica now, whatever
	// the model says — the Eq. 2 signal closing the loop on everything
	// the M/M/1 model cannot see. No SLO, no boost.
	boostMS := c.cfg.Planner.SLOp99MS / 2
	var changes []Change
	for s := range c.current {
		svc := c.svcEWMA[s]
		if svc <= 0 {
			continue // no service signal yet: hold
		}
		target := PlanReplicas(c.cfg.Planner, c.rateQPS, svc)
		if boostMS > 0 && s < len(queueMS) && queueMS[s] > boostMS && target <= c.current[s] {
			// The model thinks we're fine but the queue says otherwise:
			// add a machine now, ask questions at the next cadence.
			target = c.current[s] + 1
			if target > c.cfg.Planner.MaxReplicas {
				target = c.cfg.Planner.MaxReplicas
			}
		}
		switch {
		case target > c.current[s]:
			changes = append(changes, Change{TMS: tMS, Shard: s, From: c.current[s], To: target})
			c.current[s] = target
			c.lastChangeMS[s] = tMS
		case target < c.current[s]:
			tight := c.cfg.Planner
			tight.SLOp99MS *= 1 - hysteresisFrac
			if PlanReplicas(tight, c.rateQPS, svc) >= c.current[s] {
				break // inside the hysteresis band: hold
			}
			if tMS-c.lastChangeMS[s] < c.cfg.ScaleDownCooldownMS {
				break // too soon since the last scale event
			}
			// One step at a time: scale-downs are cheap to undo but
			// expensive to overshoot.
			to := c.current[s] - 1
			changes = append(changes, Change{TMS: tMS, Shard: s, From: c.current[s], To: to})
			c.current[s] = to
			c.lastChangeMS[s] = tMS
		}
	}
	c.log = append(c.log, changes...)
	return changes
}

// Reset returns the controller to its initial state (one replica per
// shard as at New, no observations, empty log), for run independence in
// sweeps.
func (c *Controller) Reset() {
	for s := range c.current {
		c.current[s] = 1
		c.svcEWMA[s] = 0
		c.lastChangeMS[s] = 0
	}
	c.arrivals = 0
	c.rateQPS = 0
	c.haveRate = false
	c.lastReplanMS = 0
	c.log = nil
}
