package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"cottage/internal/qcache"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// smallEngine builds a fast engine fixture (no NN training).
func smallEngine(tb testing.TB) (*Engine, []trace.Query) {
	tb.Helper()
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 3000
	ccfg.VocabSize = 4000
	ccfg.NumTopics = 16
	ccfg.TopicTermCount = 120
	corpus := textgen.Generate(ccfg)
	cfg := DefaultConfig()
	cfg.NumShards = 8
	shards := BuildShards(corpus, cfg, 5)
	e := New(shards, cfg)
	qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 3, NumQueries: 120, QPS: 10})
	return e, qs
}

// fixedPolicy is a test policy with a constant decision shape.
type fixedPolicy struct {
	name     string
	select_  func(i int) bool
	budgetMS float64
	freq     float64
	observed []float64
}

func (f *fixedPolicy) Name() string { return f.name }
func (f *fixedPolicy) Decide(e *Engine, _ trace.Query, _ float64) Decision {
	d := Decision{
		Participate: make([]bool, len(e.Shards)),
		Freq:        make([]float64, len(e.Shards)),
		BudgetMS:    f.budgetMS,
	}
	for i := range d.Participate {
		d.Participate[i] = f.select_(i)
		d.Freq[i] = f.freq
	}
	return d
}
func (f *fixedPolicy) Observe(l float64) { f.observed = append(f.observed, l) }

func all(int) bool { return true }

func TestEvaluateGroundTruth(t *testing.T) {
	e, qs := smallEngine(t)
	for _, q := range qs[:20] {
		ev := e.Evaluate(q)
		if len(ev.TopK) > e.K {
			t.Fatalf("ground truth larger than K")
		}
		// TopK must equal the merge of shard results by construction; and
		// every shard's hits are sorted.
		for si := range ev.PerShard {
			if ev.Cycles[si] <= 0 {
				t.Fatalf("non-positive cycles for shard %d", si)
			}
		}
		for i := 1; i < len(ev.TopK); i++ {
			if ev.TopK[i].Score > ev.TopK[i-1].Score {
				t.Fatal("ground truth not sorted")
			}
		}
	}
}

func TestExhaustiveLikeRunPerfectQuality(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs)
	p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}
	res := e.Run(p, evs)
	if len(res.Outcomes) != len(qs) {
		t.Fatalf("got %d outcomes", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.PAtK != 1 {
			t.Fatalf("query %d: P@K = %v under full participation", o.QueryID, o.PAtK)
		}
		if o.ActiveISNs != len(e.Shards) {
			t.Fatalf("active ISNs %d", o.ActiveISNs)
		}
		if o.LatencyMS <= 0 {
			t.Fatalf("non-positive latency")
		}
		if o.DroppedISNs != 0 {
			t.Fatalf("unbudgeted run dropped responses")
		}
	}
	if res.AvgPowerW <= e.Cluster.Meter.Model().IdleWatts {
		t.Error("power should exceed idle")
	}
	if len(p.observed) != len(qs) {
		t.Error("Observe not called per query")
	}
}

func TestSubsetParticipationReducesQualityAndWork(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs)
	full := e.Run(&fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}, evs)
	half := e.Run(&fixedPolicy{name: "half", select_: func(i int) bool { return i%2 == 0 }, budgetMS: math.Inf(1)}, evs)
	sf, sh := Summarize(full), Summarize(half)
	if sh.MeanPAtK >= sf.MeanPAtK {
		t.Errorf("half participation should lose quality: %v vs %v", sh.MeanPAtK, sf.MeanPAtK)
	}
	if sh.MeanCRES >= sf.MeanCRES {
		t.Errorf("half participation should search fewer docs")
	}
	if sh.MeanISNs != 4 {
		t.Errorf("half participation MeanISNs = %v", sh.MeanISNs)
	}
	if sh.AvgPowerW >= sf.AvgPowerW {
		t.Errorf("half participation should use less power: %v vs %v", sh.AvgPowerW, sf.AvgPowerW)
	}
}

func TestTightBudgetCutsLatencyAndQuality(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs)
	free := e.Run(&fixedPolicy{name: "free", select_: all, budgetMS: math.Inf(1)}, evs)
	sf := Summarize(free)
	// A budget at ~60% of the unbudgeted mean must truncate stragglers.
	budget := sf.MeanLatency * 0.6
	tight := e.Run(&fixedPolicy{name: "tight", select_: all, budgetMS: budget}, evs)
	st := Summarize(tight)
	if st.MeanLatency >= sf.MeanLatency {
		t.Errorf("budgeted latency %v should be below unbudgeted %v", st.MeanLatency, sf.MeanLatency)
	}
	if st.P95Latency > budget+2 {
		t.Errorf("budgeted p95 %v should be near the %vms budget", st.P95Latency, budget)
	}
	if st.MeanPAtK >= sf.MeanPAtK {
		t.Errorf("cutting stragglers must cost quality: %v vs %v", st.MeanPAtK, sf.MeanPAtK)
	}
	if st.DroppedFrac == 0 {
		t.Error("tight budget should drop some responses")
	}
}

func TestBoostReducesLatency(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs)
	def := e.Run(&fixedPolicy{name: "def", select_: all, budgetMS: math.Inf(1)}, evs)
	boost := e.Run(&fixedPolicy{name: "boost", select_: all, budgetMS: math.Inf(1), freq: e.Cluster.Ladder.Max()}, evs)
	sd, sb := Summarize(def), Summarize(boost)
	want := e.Cluster.Ladder.Max() / e.Cluster.Ladder.Default()
	ratio := sd.MeanLatency / sb.MeanLatency
	// Service dominates latency at this load, so the speedup should be
	// most of the frequency ratio.
	if ratio < want*0.7 || ratio > want*1.3 {
		t.Errorf("boost speedup %v, want near %v", ratio, want)
	}
	if sb.AvgPowerW <= sd.AvgPowerW {
		t.Error("boosting everything should cost power")
	}
}

func TestRunsAreIndependent(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs)
	p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}
	a := Summarize(e.Run(p, evs))
	b := Summarize(e.Run(p, evs))
	if a.MeanLatency != b.MeanLatency || a.AvgPowerW != b.AvgPowerW {
		t.Error("consecutive runs differ: cluster state leaked")
	}
}

func TestPolicySizeMismatchPanics(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs[:1])
	bad := &fixedPolicy{name: "bad", select_: all, budgetMS: math.Inf(1)}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mis-sized Participate")
		}
	}()
	// Wrap Decide to return a short vector.
	e.Run(policyFunc{name: "bad", decide: func(e *Engine, q trace.Query, now float64) Decision {
		d := bad.Decide(e, q, now)
		d.Participate = d.Participate[:2]
		return d
	}}, evs)
}

type policyFunc struct {
	name   string
	decide func(*Engine, trace.Query, float64) Decision
}

func (p policyFunc) Name() string { return p.name }
func (p policyFunc) Decide(e *Engine, q trace.Query, now float64) Decision {
	return p.decide(e, q, now)
}
func TestNoParticipantsYieldsZeroQuality(t *testing.T) {
	e, qs := smallEngine(t)
	evs := e.EvaluateAll(qs[:5])
	res := e.Run(&fixedPolicy{name: "none", select_: func(int) bool { return false }, budgetMS: math.Inf(1)}, evs)
	for _, o := range res.Outcomes {
		if o.PAtK != 0 {
			t.Errorf("no participants should give zero quality, got %v", o.PAtK)
		}
		if o.ActiveISNs != 0 || o.DocsSearched != 0 {
			t.Error("no participants should do no work")
		}
	}
}

func TestQueueingUnderLoad(t *testing.T) {
	e, _ := smallEngine(t)
	// A burst of simultaneous queries must queue on the single-worker
	// ISNs: later queries see higher latency.
	burst := make([]trace.Query, 8)
	for i := range burst {
		burst[i] = trace.Query{ID: i, Terms: []string{e.Shards[0].Terms[0].Text}, ArrivalMS: 0}
	}
	evs := e.EvaluateAll(burst)
	res := e.Run(&fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}, evs)
	if res.Outcomes[7].LatencyMS <= res.Outcomes[0].LatencyMS {
		t.Errorf("burst tail %v should exceed head %v",
			res.Outcomes[7].LatencyMS, res.Outcomes[0].LatencyMS)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(RunResult{Policy: "x"})
	if s.Policy != "x" || s.Queries != 0 {
		t.Error("empty summary wrong")
	}
}

func TestBuildShardsRoundRobin(t *testing.T) {
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 600
	ccfg.VocabSize = 1500
	ccfg.NumTopics = 8
	ccfg.TopicTermCount = 80
	corpus := textgen.Generate(ccfg)
	cfg := DefaultConfig()
	cfg.NumShards = 4
	shards := BuildShardsRoundRobin(corpus, cfg)
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.NumDocs
	}
	if total != 600 {
		t.Fatalf("allocated %d docs", total)
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(nil, DefaultConfig())
}

func TestStrategiesProduceSameGroundTruth(t *testing.T) {
	e, qs := smallEngine(t)
	e2cfg := DefaultConfig()
	e2cfg.NumShards = 8
	e2cfg.Strategy = search.StrategyExhaustive
	e2 := New(e.Shards, e2cfg)
	for _, q := range qs[:10] {
		a := e.Evaluate(q)
		b := e2.Evaluate(q)
		if len(a.TopK) != len(b.TopK) {
			t.Fatalf("ground truth sizes differ")
		}
		for i := range a.TopK {
			if math.Abs(a.TopK[i].Score-b.TopK[i].Score) > 1e-9 {
				t.Fatalf("ground truth scores differ at %d", i)
			}
		}
	}
}

func BenchmarkEvaluateQuery(b *testing.B) {
	e, qs := smallEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Evaluate(qs[i%len(qs)])
	}
}

func BenchmarkRunQuery(b *testing.B) {
	e, qs := smallEngine(b)
	evs := e.EvaluateAll(qs)
	p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}
	var out Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(evs) == 0 {
			e.Cluster.Reset()
		}
		e.runOne(&out, p, evs[i%len(evs)])
	}
}

// exhaustive is baselines.Exhaustive, which this package cannot import:
// every shard, no budget, decided in the engine's DecisionBuffers.
type exhaustive struct{}

func (exhaustive) Name() string { return "exhaustive" }
func (exhaustive) Decide(e *Engine, _ trace.Query, _ float64) Decision {
	p := e.DecisionBuffers().Participate
	for i := range p {
		p[i] = true
	}
	return Decision{Participate: p, BudgetMS: math.Inf(1)}
}

// BenchmarkRunExhaustive16 is one exhaustive twin replay per op at the
// fanout16 workloads' shape: a Wikipedia trace on 16 topical shards (a
// third of their 48k documents, three home shards per topic), every
// query sent to every shard. With no predictions and no Algorithm 1,
// it times the replay path itself: routing, execution, power and
// fan-in over 16 legs per query.
func BenchmarkRunExhaustive16(b *testing.B) {
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 16000
	corpus := textgen.Generate(ccfg)
	cfg := DefaultConfig()
	e := New(BuildFromAllocation(corpus, corpus.AllocateTopical(cfg.NumShards, 3, 0.15, 5), cfg), cfg)
	evs := e.EvaluateAll(trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 202, NumQueries: 1000, QPS: 45}))
	e.Run(exhaustive{}, evs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(exhaustive{}, evs)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(evs)), "us/query")
}

func TestCacheShortCircuitsRepeats(t *testing.T) {
	e, qs := smallEngine(t)
	// A trace with every query repeated: second occurrence must hit.
	doubled := make([]trace.Query, 0, 40)
	now := 0.0
	for i := 0; i < 20; i++ {
		now += 40
		doubled = append(doubled, trace.Query{ID: 2 * i, Terms: qs[i].Terms, ArrivalMS: now})
		now += 40
		doubled = append(doubled, trace.Query{ID: 2*i + 1, Terms: qs[i].Terms, ArrivalMS: now})
	}
	evs := e.EvaluateAll(doubled)
	e.Cache = qcache.NewLRU[[]search.Hit](256)
	defer func() { e.Cache = nil }()
	res := e.Run(&fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}, evs)
	if res.CacheHitRate < 0.45 || res.CacheHitRate > 0.55 {
		t.Fatalf("hit rate = %v, want ~0.5", res.CacheHitRate)
	}
	for i := 1; i < len(res.Outcomes); i += 2 {
		hit, miss := res.Outcomes[i], res.Outcomes[i-1]
		if hit.ActiveISNs != 0 || hit.DocsSearched != 0 {
			t.Fatalf("cache hit %d did ISN work", i)
		}
		if hit.LatencyMS >= miss.LatencyMS {
			t.Fatalf("cache hit %d slower than miss", i)
		}
		if hit.PAtK != miss.PAtK {
			t.Fatalf("cached quality %v != original %v", hit.PAtK, miss.PAtK)
		}
	}
	// Power with the cache must be below power without it.
	e.Cache = nil
	uncached := e.Run(&fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}, evs)
	if res.AvgPowerW >= uncached.AvgPowerW {
		t.Errorf("cache should save power: %v vs %v", res.AvgPowerW, uncached.AvgPowerW)
	}
}

// TestCachedHitsOutliveLaterQueries: a repeat arrives after other
// queries were merged, so the cache must hold its own copy of a merged
// answer, not the engine's merge storage.
func TestCachedHitsOutliveLaterQueries(t *testing.T) {
	e, qs := smallEngine(t)
	twice := make([]trace.Query, 0, 40)
	for i := 0; i < 40; i++ {
		twice = append(twice, trace.Query{ID: i, Terms: qs[i%20].Terms, ArrivalMS: float64(40 * (i + 1))})
	}
	evs := e.EvaluateAll(twice)
	e.Cache = qcache.NewLRU[[]search.Hit](256)
	defer func() { e.Cache = nil }()
	res := e.Run(&fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}, evs)
	for i := 20; i < 40; i++ {
		hit, miss := res.Outcomes[i], res.Outcomes[i-20]
		if hit.ActiveISNs != 0 || hit.PAtK != miss.PAtK {
			t.Fatalf("repeat %d: %d ISNs searched, P@K %v; first answer's P@K %v", i, hit.ActiveISNs, hit.PAtK, miss.PAtK)
		}
	}
}

func TestReplayDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// EvaluateAll fans out per query and per shard through par; Run's
	// outcome accounting is sequential over an index-addressed input. The
	// whole replay must be bit-identical at any worker count.
	e, qs := smallEngine(t)
	run := func(procs int) ([]*Evaluated, RunResult) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		evs := e.EvaluateAll(qs)
		p := &fixedPolicy{name: "all", select_: all, budgetMS: math.Inf(1)}
		return evs, e.Run(p, evs)
	}
	evs1, r1 := run(1)
	evs8, r8 := run(8)
	if !reflect.DeepEqual(evs1, evs8) {
		t.Error("EvaluateAll differs across GOMAXPROCS")
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Error("Run differs across GOMAXPROCS")
	}
}
