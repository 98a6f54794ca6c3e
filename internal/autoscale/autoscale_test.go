package autoscale

import (
	"fmt"
	"math"
	"testing"
)

func TestP99MS(t *testing.T) {
	// At ρ=0 the p99 is just the service time's exponential p99.
	if got, want := P99MS(10, 0), 10*math.Log(100); math.Abs(got-want) > 1e-9 {
		t.Fatalf("P99MS(10,0)=%v want %v", got, want)
	}
	// Saturation blows up.
	if !math.IsInf(P99MS(10, 1), 1) || !math.IsInf(P99MS(10, 1.5), 1) {
		t.Fatal("saturated queue should predict infinite p99")
	}
	// Higher utilization, longer tail.
	if P99MS(10, 0.8) <= P99MS(10, 0.4) {
		t.Fatal("p99 not increasing in utilization")
	}
}

func TestPlanReplicasPins(t *testing.T) {
	cfg := PlannerConfig{SLOp99MS: 200, MaxReplicas: 8}
	// 10 ms service at 20 QPS: ρ(R=1)=0.2, p99≈10·4.6/0.8≈58 ms → R=1.
	if got := PlanReplicas(cfg, 20, 10); got != 1 {
		t.Fatalf("light load planned R=%d, want 1", got)
	}
	// 10 ms at 120 QPS: ρ(R=1)=1.2 saturated; R=2 → ρ=0.6,
	// p99≈10·4.6/0.4≈115 ≤ 200 → R=2.
	if got := PlanReplicas(cfg, 120, 10); got != 2 {
		t.Fatalf("medium load planned R=%d, want 2", got)
	}
	// Even the full fleet cannot meet an absurd SLO: plan the max.
	tight := PlannerConfig{SLOp99MS: 1, MaxReplicas: 4}
	if got := PlanReplicas(tight, 500, 10); got != 4 {
		t.Fatalf("impossible SLO planned R=%d, want MaxReplicas", got)
	}
	// No signal → 1.
	if PlanReplicas(cfg, 0, 10) != 1 || PlanReplicas(cfg, 10, 0) != 1 {
		t.Fatal("no-signal plan should be 1")
	}
	// SLO disabled: utilization cap alone decides.
	util := PlannerConfig{MaxReplicas: 8}
	if got := PlanReplicas(util, 120, 10); got != 2 {
		t.Fatalf("utilization-only plan R=%d, want 2 (ρ=0.6)", got)
	}
}

// TestPlanReplicasMonotone: the plan never shrinks as load or service
// time grows — the invariant the harness sweep gate relies on.
func TestPlanReplicasMonotone(t *testing.T) {
	cfg := PlannerConfig{SLOp99MS: 150, MaxReplicas: 6}
	prev := 0
	for _, qps := range []float64{5, 20, 50, 100, 200, 400, 800} {
		r := PlanReplicas(cfg, qps, 12)
		if r < prev {
			t.Fatalf("plan shrank to %d at %v QPS (was %d)", r, qps, prev)
		}
		prev = r
	}
	prev = 0
	for _, svc := range []float64{1, 4, 8, 16, 32, 64} {
		r := PlanReplicas(cfg, 60, svc)
		if r < prev {
			t.Fatalf("plan shrank to %d at %v ms service (was %d)", r, svc, prev)
		}
		prev = r
	}
}

func controllerCfg() Config {
	return Config{
		Planner:          PlannerConfig{SLOp99MS: 200, MaxReplicas: 4},
		ReplanIntervalMS: 1000,
	}
}

// feed records n arrivals and one service observation per shard.
func feed(c *Controller, shards, n int, svcMS float64) {
	for i := 0; i < n; i++ {
		c.RecordArrival()
	}
	for s := 0; s < shards; s++ {
		c.RecordService(s, svcMS)
	}
}

func TestControllerScalesUpOnLoad(t *testing.T) {
	c := New(controllerCfg(), 2)
	// 150 arrivals over 1000 ms = 150 QPS at 10 ms service: needs R=2.
	feed(c, 2, 150, 10)
	ch := c.Replan(1000, nil)
	if len(ch) != 2 {
		t.Fatalf("changes %v, want both shards scaled", ch)
	}
	for s := 0; s < 2; s++ {
		if c.current[s] != 2 {
			t.Fatalf("shard %d at R=%d, want 2", s, c.current[s])
		}
	}
	if math.Abs(c.rateQPS-150) > 1e-9 {
		t.Fatalf("rate estimate %v, want 150", c.rateQPS)
	}
}

func TestControllerCadence(t *testing.T) {
	c := New(controllerCfg(), 1)
	feed(c, 1, 300, 10)
	if ch := c.Replan(500, nil); ch != nil {
		t.Fatalf("replanned before the cadence: %v", ch)
	}
	if ch := c.Replan(1000, nil); len(ch) != 1 {
		t.Fatalf("cadence tick did not replan: %v", ch)
	}
}

func TestControllerScaleDownCooldownAndHysteresis(t *testing.T) {
	cfg := controllerCfg() // cooldown defaults to 3× cadence = 3000 ms
	c := New(cfg, 1)
	feed(c, 1, 300, 10) // 300 QPS → R=4 (ρ at R=3 would be 1.0)
	c.Replan(1000, nil)
	if c.current[0] != 4 {
		t.Fatalf("R=%d after burst, want 4", c.current[0])
	}
	// Load vanishes. The very next ticks are inside the cooldown: hold.
	feed(c, 1, 10, 10)
	c.Replan(2000, nil)
	feed(c, 1, 10, 10)
	c.Replan(3000, nil)
	if c.current[0] != 4 {
		t.Fatalf("scaled down inside cooldown to R=%d", c.current[0])
	}
	// Past the cooldown: one step at a time, not a cliff dive.
	feed(c, 1, 10, 10)
	c.Replan(4000, nil)
	if c.current[0] != 3 {
		t.Fatalf("R=%d after cooldown, want one-step 3", c.current[0])
	}
	// The next step has its own cooldown.
	feed(c, 1, 10, 10)
	c.Replan(5000, nil)
	if c.current[0] != 3 {
		t.Fatalf("second step ignored the cooldown: R=%d", c.current[0])
	}
}

func TestControllerQueueBoost(t *testing.T) {
	c := New(controllerCfg(), 1)
	// Light modeled load but a deep live queue: boost one step anyway.
	feed(c, 1, 10, 10)
	ch := c.Replan(1000, []float64{120})
	if len(ch) != 1 || c.current[0] != 2 {
		t.Fatalf("queue boost did not fire: %v, R=%d", ch, c.current[0])
	}
	// Shallow queue: no boost.
	feed(c, 1, 10, 10)
	if ch := c.Replan(2000, []float64{10}); ch != nil {
		t.Fatalf("boost fired on a shallow queue: %v", ch)
	}
}

// TestControllerDeterministic: the same observation sequence produces
// an identical plan log, run to run.
func TestControllerDeterministic(t *testing.T) {
	run := func() string {
		c := New(controllerCfg(), 3)
		for tick := 1; tick <= 20; tick++ {
			n := 30 + 20*((tick*7)%5) // deterministic pseudo-load
			feed(c, 3, n, float64(5+(tick%4)*10))
			c.Replan(float64(tick)*1000, []float64{0, float64(tick * 10), 0})
		}
		return fmt.Sprint(c.Log())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("plan log differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	if a == "[]" {
		t.Fatal("determinism fixture never scaled — not exercising anything")
	}
}

func TestControllerHoldsWithoutServiceSignal(t *testing.T) {
	c := New(controllerCfg(), 1)
	c.current[0] = 2
	for i := 0; i < 500; i++ {
		c.RecordArrival()
	}
	if ch := c.Replan(1000, nil); ch != nil {
		t.Fatalf("replanned a shard with no service data: %v", ch)
	}
	if c.current[0] != 2 {
		t.Fatal("R not held")
	}
}

func TestControllerReset(t *testing.T) {
	c := New(controllerCfg(), 2)
	feed(c, 2, 300, 10)
	c.Replan(1000, nil)
	c.Reset()
	if c.current[0] != 1 || c.current[1] != 1 || c.Log() != nil || c.rateQPS != 0 {
		t.Fatal("Reset left state behind")
	}
	// A reset controller replays to the same plan.
	feed(c, 2, 300, 10)
	first := fmt.Sprint(c.Replan(1000, nil))
	c.Reset()
	feed(c, 2, 300, 10)
	if again := fmt.Sprint(c.Replan(1000, nil)); again != first {
		t.Fatalf("post-reset replay diverged: %s vs %s", again, first)
	}
}

func TestControllerDefaultsAndClamps(t *testing.T) {
	cfg := Config{Planner: PlannerConfig{MaxReplicas: 3}}.withDefaults()
	if cfg.ReplanIntervalMS != 2000 || cfg.ScaleDownCooldownMS != 6000 {
		t.Fatalf("cadence defaults: %+v", cfg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted zero shards")
		}
	}()
	New(Config{}, 0)
}

func TestServiceEWMA(t *testing.T) {
	c := New(controllerCfg(), 1)
	c.RecordService(0, -5) // no signal
	c.RecordService(0, 10) // seeds the EWMA
	c.RecordService(0, 20)
	if got := c.svcEWMA[0]; math.Abs(got-12) > 1e-9 { // 0.2·20 + 0.8·10
		t.Fatalf("EWMA %v, want 12", got)
	}
}

func TestChangeString(t *testing.T) {
	got := Change{TMS: 3000, Shard: 2, From: 1, To: 3}.String()
	if got != "t=3000ms shard=2 1->3" {
		t.Fatalf("Change.String() = %q", got)
	}
}

// TestControllerRateBlending: the windowed rate blends with rateAlpha
// rather than whiplashing to the newest window.
func TestControllerRateBlending(t *testing.T) {
	c := New(controllerCfg(), 1)
	feed(c, 1, 100, 10)
	c.Replan(1000, nil) // rate = 100
	feed(c, 1, 300, 10)
	c.Replan(2000, nil) // rate = 0.5·300 + 0.5·100 = 200
	if math.Abs(c.rateQPS-200) > 1e-9 {
		t.Fatalf("blended rate %v, want 200", c.rateQPS)
	}
}
