package cluster

import (
	"math"
	"testing"

	"cottage/internal/search"
	"cottage/internal/xrand"
)

// execute, executeShard and executeShardHedged run one request like the
// Cluster methods they name and return the attempt written.
func execute(c *Cluster, isn int, tMS, cycles, f, deadlineMS float64) Execution {
	var ex Execution
	c.Execute(&ex, isn, tMS, cycles, f, deadlineMS)
	return ex
}

func executeShard(c *Cluster, shard int, tMS, cycles, f, deadlineMS float64) Execution {
	var ex Execution
	c.ExecuteShard(&ex, shard, tMS, cycles, f, deadlineMS)
	return ex
}

func executeShardHedged(c *Cluster, shard int, tMS, cycles, f, deadlineMS, hedgeDelayMS float64) (Execution, HedgeResult) {
	var ex Execution
	hr := c.ExecuteShardHedged(&ex, shard, tMS, cycles, f, deadlineMS, hedgeDelayMS)
	return ex, hr
}

func testCluster(n int) *Cluster {
	cfg := DefaultConfig()
	cfg.NumISNs = n
	cfg.InferMS = 0 // most tests want exact arithmetic
	return New(cfg)
}

func TestLadder(t *testing.T) {
	l := DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Default() != 1.8 || l.Max() != 2.7 {
		t.Errorf("default %v max %v", l.Default(), l.Max())
	}
}

func TestLadderValidate(t *testing.T) {
	bad := []Ladder{
		{},
		{Levels: []float64{2, 1}, DefaultIdx: 0},
		{Levels: []float64{1, 2}, DefaultIdx: 5},
	}
	for i, l := range bad {
		if l.Validate() == nil {
			t.Errorf("ladder %d should be invalid", i)
		}
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{BaseCycles: 100, CyclesPerPosting: 2, CyclesPerDoc: 3, CyclesPerInsert: 5}
	st := search.ExecStats{PostingsTraversed: 10, DocsScored: 4, HeapInserts: 2}
	want := 100.0 + 20 + 12 + 10
	if got := cm.Cycles(st); got != want {
		t.Errorf("Cycles = %v, want %v", got, want)
	}
}

func TestServiceMS(t *testing.T) {
	// 1.8e6 cycles at 1.8 GHz = 1 ms.
	if got := ServiceMS(1.8e6, 1.8); math.Abs(got-1) > 1e-12 {
		t.Errorf("ServiceMS = %v", got)
	}
	// Frequency scaling is inversely proportional (paper Eq. 1).
	s1 := ServiceMS(1e7, 1.2)
	s2 := ServiceMS(1e7, 2.4)
	if math.Abs(s1/s2-2) > 1e-12 {
		t.Errorf("Eq.1 scaling broken: %v / %v", s1, s2)
	}
}

func TestExecuteNoQueue(t *testing.T) {
	c := testCluster(2)
	// 3.6e6 cycles at 1.8 GHz = 2 ms.
	e := execute(c, 0, 10, 3.6e6, 1.8, math.Inf(1))
	if e.Status != LegAnswered {
		t.Fatal("should complete")
	}
	wantStart := 10 + c.Net.AggToISNMS
	if math.Abs(e.StartMS-wantStart) > 1e-12 {
		t.Errorf("start = %v, want %v", e.StartMS, wantStart)
	}
	if math.Abs(e.FinishMS-(wantStart+2)) > 1e-12 {
		t.Errorf("finish = %v", e.FinishMS)
	}
	if e.QueueMS != 0 {
		t.Errorf("queue = %v", e.QueueMS)
	}
}

func TestExecuteQueueing(t *testing.T) {
	c := testCluster(1)
	e1 := execute(c, 0, 0, 1.8e6, 1.8, math.Inf(1)) // 1 ms
	e2 := execute(c, 0, 0, 1.8e6, 1.8, math.Inf(1)) // queued behind e1
	if e2.StartMS < e1.FinishMS {
		t.Error("second request started before first finished")
	}
	if e2.QueueMS <= 0 {
		t.Error("second request should have queued")
	}
	// A request to the other... (only one ISN here) — arriving later, no queue.
	e3 := execute(c, 0, 100, 1.8e6, 1.8, math.Inf(1))
	if e3.QueueMS != 0 {
		t.Error("late request should not queue")
	}
}

func TestDeadlineTruncation(t *testing.T) {
	c := testCluster(1)
	// 18e6 cycles at 1.8 GHz = 10 ms, but deadline at t=5.
	e := execute(c, 0, 0, 18e6, 1.8, 5)
	if e.Status != LegDropped {
		t.Fatal("should not complete")
	}
	if e.FinishMS != 5 {
		t.Errorf("finish = %v, want 5 (deadline)", e.FinishMS)
	}
	if e.ServiceMS >= 10 {
		t.Errorf("busy time %v should be truncated", e.ServiceMS)
	}
	// Deadline earlier than start: no busy time at all.
	e2 := execute(c, 0, 0, 1e6, 1.8, 1)
	if e2.Status != LegDropped || e2.ServiceMS != 0 {
		t.Errorf("pre-start deadline: %+v", e2)
	}
}

func TestBoostFinishesFaster(t *testing.T) {
	a := testCluster(1)
	b := testCluster(1)
	cycles := 2.7e7
	slow := execute(a, 0, 0, cycles, 1.8, math.Inf(1))
	fast := execute(b, 0, 0, cycles, 2.7, math.Inf(1))
	ratio := slow.ServiceMS / fast.ServiceMS
	if math.Abs(ratio-1.5) > 1e-9 {
		t.Errorf("boost speedup = %v, want 1.5", ratio)
	}
}

func TestEquivalentLatency(t *testing.T) {
	c := testCluster(1)
	// Load the ISN with 10 ms of work.
	execute(c, 0, 0, 18e6, 1.8, math.Inf(1))
	// Eq. 2: backlog + own service at f.
	got := c.EquivalentLatencyMS(0, 0, 1.8e6, 1.8)
	want := (10 + c.Net.AggToISNMS) + 1 // backlog (incl. fabric offset) + 1 ms
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("equivalent latency = %v, want %v", got, want)
	}
	// Boosting reduces only the service component.
	boosted := c.EquivalentLatencyMS(0, 0, 1.8e6, 2.7)
	if boosted >= got {
		t.Error("boost should reduce equivalent latency")
	}
}

func TestEnergyAccounting(t *testing.T) {
	c := testCluster(2)
	execute(c, 0, 0, 18e6, 1.8, math.Inf(1)) // 10 ms busy at 1.8
	model := c.Meter.Model()
	wantBusy := model.BusyEnergyMJ(1.8, 10)
	if got := c.Meter.BusyEnergyMJ(); math.Abs(got-wantBusy) > 1e-9 {
		t.Errorf("busy energy = %v, want %v", got, wantBusy)
	}
	// Average power must exceed idle while busy work exists.
	if c.AveragePowerWatts() <= model.IdleWatts {
		t.Error("average power should exceed idle")
	}
}

func TestHigherFrequencyCostsMoreEnergy(t *testing.T) {
	a, b := testCluster(1), testCluster(1)
	cycles := 2.7e7
	execute(a, 0, 0, cycles, 1.8, math.Inf(1))
	execute(b, 0, 0, cycles, 2.7, math.Inf(1))
	// Same work: higher frequency burns more busy energy (cubic power
	// dominates the shorter duration under the default model).
	ea := a.Meter.BusyEnergyMJ()
	eb := b.Meter.BusyEnergyMJ()
	if eb <= ea {
		t.Errorf("boost energy %v should exceed default energy %v", eb, ea)
	}
}

func TestUtilizationAndReset(t *testing.T) {
	c := testCluster(2)
	if c.Utilization() != 0 {
		t.Error("fresh cluster utilization should be 0")
	}
	execute(c, 0, 0, 18e6, 1.8, math.Inf(1))
	u := c.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if c.ISNs[0].QueriesServed != 1 {
		t.Error("QueriesServed not counted")
	}
	if c.QueueDelayMS(0, 0) <= 0 {
		t.Error("a request arriving behind the first should queue")
	}
	c.Reset()
	if c.NowMS() != 0 || c.Utilization() != 0 || c.Meter.BusyEnergyMJ() != 0 {
		t.Error("reset incomplete")
	}
	if c.QueueDelayMS(0, 0) != 0 {
		t.Error("reset left a backlog on the ISN")
	}
}

func TestInferenceOverheadCharged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumISNs = 1
	c := New(cfg) // InferMS > 0
	execute(c, 0, 0, 1.8e6, 1.8, math.Inf(1))
	if c.ISNs[0].BusyMS <= 1 {
		t.Error("inference time not charged to busy accounting")
	}
}

func TestNewPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero ISNs should panic")
			}
		}()
		New(Config{NumISNs: 0, Ladder: DefaultLadder()})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad ladder should panic")
			}
		}()
		New(Config{NumISNs: 1, Ladder: Ladder{}})
	}()
}

func TestFrequencySweepMatchesFig4(t *testing.T) {
	// Fig. 4: 97 ms at 1.2 GHz dropping to 40 ms at 2.7 GHz — a 2.43x
	// improvement driven purely by 1/f scaling (2.7/1.2 = 2.25 plus the
	// paper's measurement noise). Our model reproduces exactly 1/f.
	cycles := 97.0 * 1.2 * 1e6
	lat12 := ServiceMS(cycles, 1.2)
	lat27 := ServiceMS(cycles, 2.7)
	if math.Abs(lat12-97) > 1e-9 {
		t.Fatalf("1.2 GHz latency = %v", lat12)
	}
	ratio := lat12 / lat27
	if math.Abs(ratio-2.25) > 1e-9 {
		t.Errorf("sweep ratio = %v, want 2.25", ratio)
	}
}

func BenchmarkExecute(b *testing.B) {
	c := testCluster(16)
	var ex Execution
	for i := 0; i < b.N; i++ {
		c.Execute(&ex, i%16, float64(i), 1e7, 1.8, math.Inf(1))
	}
}

func TestSpeedFactors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumISNs = 3
	cfg.InferMS = 0
	cfg.SpeedFactors = []float64{1, 2, 0} // 0 defaults to 1
	c := New(cfg)
	if c.ISNs[0].SpeedFactor != 1 || c.ISNs[1].SpeedFactor != 2 || c.ISNs[2].SpeedFactor != 1 {
		t.Fatalf("speed factors wrong: %+v %+v %+v", c.ISNs[0], c.ISNs[1], c.ISNs[2])
	}
	if c.EffectiveCycles(1, 1e6) != 2e6 {
		t.Errorf("EffectiveCycles = %v", c.EffectiveCycles(1, 1e6))
	}
	if c.EffectiveCycles(0, 1e6) != 1e6 {
		t.Errorf("nominal EffectiveCycles = %v", c.EffectiveCycles(0, 1e6))
	}
}

// TestTimelineInvariants drives the cluster with random requests and
// checks the per-ISN timeline stays consistent: service never starts
// before arrival, never overlaps the previous request, and the horizon
// is monotone.
func TestTimelineInvariants(t *testing.T) {
	c := testCluster(4)
	rng := xrand.New(99)
	lastFinish := make([]float64, 4)
	now := 0.0
	prevHorizon := 0.0
	for i := 0; i < 2000; i++ {
		now += float64(rng.Intn(10))
		isn := rng.Intn(4)
		cycles := float64(1+rng.Intn(20)) * 1e6
		f := c.Ladder.Levels[rng.Intn(len(c.Ladder.Levels))]
		deadline := math.Inf(1)
		if rng.Intn(4) == 0 {
			deadline = now + float64(1+rng.Intn(8))
		}
		e := execute(c, isn, now, cycles, f, deadline)
		if e.StartMS < now+c.Net.AggToISNMS-1e-9 {
			t.Fatalf("request %d started before arrival", i)
		}
		if e.StartMS < lastFinish[isn]-1e-9 {
			t.Fatalf("request %d overlaps previous on ISN %d", i, isn)
		}
		if e.FinishMS < e.StartMS {
			t.Fatalf("request %d finishes before it starts", i)
		}
		if e.Status == LegAnswered && e.FinishMS > deadline+1e-9 {
			t.Fatalf("request %d completed past its deadline", i)
		}
		if e.Status != LegAnswered && deadline == math.Inf(1) {
			t.Fatalf("request %d dropped with no deadline", i)
		}
		lastFinish[isn] = e.FinishMS
		if c.NowMS() < prevHorizon {
			t.Fatal("horizon moved backwards")
		}
		prevHorizon = c.NowMS()
	}
	if u := c.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %v", u)
	}
}
