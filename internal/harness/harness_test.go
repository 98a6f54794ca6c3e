package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/qcache"
	"cottage/internal/search"
	"cottage/internal/trace"
)

var (
	setupOnce sync.Once
	setup     *Setup
	setupErr  error
)

// testSetup builds the quick-config setup once per test binary.
func testSetup(tb testing.TB) *Setup {
	tb.Helper()
	if testing.Short() {
		tb.Skip("harness setup is expensive")
	}
	setupOnce.Do(func() {
		setup, setupErr = Build(QuickSetupConfig())
	})
	if setupErr != nil {
		tb.Fatal(setupErr)
	}
	return setup
}

func summaries(c *Comparison, traceIdx int) map[string]engine.Summary {
	m := make(map[string]engine.Summary)
	for pi, name := range c.Policies {
		m[name] = c.Summaries[traceIdx][pi]
	}
	return m
}

func TestSetupShape(t *testing.T) {
	s := testSetup(t)
	if len(s.Engine.Shards) != s.Config.EngineCfg.NumShards {
		t.Fatalf("shard count %d", len(s.Engine.Shards))
	}
	if len(s.WikiEval) != s.Config.EvalQueries || len(s.LuceneEval) != s.Config.EvalQueries {
		t.Fatal("evaluated trace sizes wrong")
	}
	if s.Engine.Fleet == nil || len(s.Engine.Fleet.Predictors) != len(s.Engine.Shards) {
		t.Fatal("fleet not trained per shard")
	}
	total := 0
	for _, sh := range s.Engine.Shards {
		total += sh.NumDocs
	}
	if total != s.Config.CorpusCfg.NumDocs {
		t.Fatalf("shards hold %d of %d docs", total, s.Config.CorpusCfg.NumDocs)
	}
}

// TestPaperOrderings asserts the qualitative shape of the paper's headline
// results — who wins on which metric — on the Wikipedia trace.
func TestPaperOrderings(t *testing.T) {
	s := testSetup(t)
	m := summaries(s.comparison(), 0)
	exh, agg, rankS, taily, cottage :=
		m["exhaustive"], m["aggregation"], m["rank-s"], m["taily"], m["cottage"]

	// Exhaustive search is perfect-quality, all ISNs, worst-or-near-worst
	// latency (Fig. 10/11).
	if exh.MeanPAtK != 1.0 {
		t.Errorf("exhaustive P@10 = %v, want 1", exh.MeanPAtK)
	}
	if exh.MeanISNs != float64(len(s.Engine.Shards)) {
		t.Errorf("exhaustive ISNs = %v", exh.MeanISNs)
	}

	// Fig. 10: Cottage has the lowest average and tail latency, with a
	// substantial factor over exhaustive (paper: 2.41x avg, 2.6x p95).
	for name, sm := range m {
		if name == "cottage" {
			continue
		}
		if cottage.MeanLatency >= sm.MeanLatency {
			t.Errorf("cottage latency %v not below %s's %v", cottage.MeanLatency, name, sm.MeanLatency)
		}
	}
	if f := exh.MeanLatency / cottage.MeanLatency; f < 1.5 {
		t.Errorf("cottage avg latency factor vs exhaustive = %v, want >= 1.5", f)
	}
	if f := exh.P95Latency / cottage.P95Latency; f < 1.3 {
		t.Errorf("cottage p95 latency factor = %v, want >= 1.3", f)
	}

	// Fig. 11: quality ordering cottage > taily > rank-s; cottage near the
	// paper's 0.947.
	if cottage.MeanPAtK < 0.9 {
		t.Errorf("cottage P@10 = %v, want >= 0.9", cottage.MeanPAtK)
	}
	if cottage.MeanPAtK <= taily.MeanPAtK {
		t.Errorf("cottage quality %v should beat taily %v", cottage.MeanPAtK, taily.MeanPAtK)
	}
	if taily.MeanPAtK <= rankS.MeanPAtK {
		t.Errorf("taily quality %v should beat rank-s %v", taily.MeanPAtK, rankS.MeanPAtK)
	}

	// Fig. 13: every selective policy uses fewer ISNs than exhaustive and
	// aggregation (which always use all 16).
	if agg.MeanISNs != exh.MeanISNs {
		t.Errorf("aggregation should use all ISNs")
	}
	for _, sm := range []engine.Summary{rankS, taily, cottage} {
		if sm.MeanISNs >= exh.MeanISNs {
			t.Errorf("%s ISNs %v not below exhaustive", sm.Policy, sm.MeanISNs)
		}
	}

	// C_RES: cottage searches far fewer documents than exhaustive
	// (paper: 2.67x fewer).
	if f := exh.MeanCRES / cottage.MeanCRES; f < 2.0 {
		t.Errorf("cottage C_RES factor = %v, want >= 2", f)
	}

	// Fig. 14: every selective policy beats exhaustive on power, and
	// cottage saves a large share of the above-idle power.
	idle := s.Engine.Cluster.Meter.Model().IdleWatts
	for _, sm := range []engine.Summary{rankS, taily, cottage} {
		if sm.AvgPowerW >= exh.AvgPowerW {
			t.Errorf("%s power %v not below exhaustive %v", sm.Policy, sm.AvgPowerW, exh.AvgPowerW)
		}
	}
	if save := (exh.AvgPowerW - cottage.AvgPowerW) / (exh.AvgPowerW - idle); save < 0.2 {
		t.Errorf("cottage above-idle power saving = %v, want >= 0.2", save)
	}
}

func TestPaperOrderingsLucene(t *testing.T) {
	s := testSetup(t)
	m := summaries(s.comparison(), 1)
	cottage, taily, rankS, exh := m["cottage"], m["taily"], m["rank-s"], m["exhaustive"]
	if cottage.MeanPAtK <= taily.MeanPAtK || taily.MeanPAtK <= rankS.MeanPAtK {
		t.Errorf("lucene quality ordering broken: cottage %v taily %v rank-s %v",
			cottage.MeanPAtK, taily.MeanPAtK, rankS.MeanPAtK)
	}
	if exh.MeanLatency/cottage.MeanLatency < 1.2 {
		t.Errorf("lucene latency factor too small: %v", exh.MeanLatency/cottage.MeanLatency)
	}
}

// TestAblationOrderings asserts Fig. 15's directions.
func TestAblationOrderings(t *testing.T) {
	s := testSetup(t)
	m := summaries(s.ablation(), 0)
	cottage, isn, noml := m["cottage"], m["cottage-isn"], m["cottage-noml"]

	// Coordination: Cottage-ISN (no budget, no coordination) has higher
	// latency than full Cottage (paper: 1.9x).
	if isn.MeanLatency <= cottage.MeanLatency {
		t.Errorf("cottage-isn latency %v should exceed cottage %v", isn.MeanLatency, cottage.MeanLatency)
	}
	// ML quality prediction: Cottage-withoutML loses quality vs Cottage
	// (paper: ~0.85 vs 0.947).
	if noml.MeanPAtK >= cottage.MeanPAtK {
		t.Errorf("cottage-noml quality %v should be below cottage %v", noml.MeanPAtK, cottage.MeanPAtK)
	}
	// Both Cottage variants with ML quality prediction keep high quality.
	if isn.MeanPAtK < 0.9 {
		t.Errorf("cottage-isn quality = %v", isn.MeanPAtK)
	}
}

// TestOracleReachesPaperOperatingPoint verifies the framework analysis:
// with perfect quality predictions, Cottage's active-ISN count drops
// toward the paper's 6.81 and power falls below Taily's.
func TestOracleReachesPaperOperatingPoint(t *testing.T) {
	s := testSetup(t)
	// Use a fresh import cycle: oracle needs core.
	oracleExp, ok := ByID("ablations")
	if !ok {
		t.Fatal("ablations experiment missing")
	}
	var buf bytes.Buffer
	if err := oracleExp.Run(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "oracle quality") {
		t.Fatalf("ablation output missing oracle row:\n%s", out)
	}
	t.Log("\n" + out)
}

// TestExperimentsRun executes every experiment driver and checks it
// produces non-trivial output without error.
func TestExperimentsRun(t *testing.T) {
	s := testSetup(t)
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(s, &buf); err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced almost no output: %q", exp.ID, buf.String())
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig10"); !ok {
		t.Error("fig10 should exist")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("nonsense should not exist")
	}
}

func TestRenderComparison(t *testing.T) {
	s := testSetup(t)
	var buf bytes.Buffer
	RenderComparison(&buf, s.comparison())
	out := buf.String()
	for _, want := range []string{"wikipedia", "lucene", "cottage", "exhaustive", "P@10"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTraceEval(t *testing.T) {
	s := testSetup(t)
	if len(s.TraceEval(trace.Wikipedia)) != len(s.WikiEval) {
		t.Error("wikipedia eval wrong")
	}
	if len(s.TraceEval(trace.Lucene)) != len(s.LuceneEval) {
		t.Error("lucene eval wrong")
	}
}

// TestAggregationBudgetAdapts checks the epoch policy actually converges
// to a finite budget and cuts tails (Fig. 3b's behaviour).
func TestAggregationBudgetAdapts(t *testing.T) {
	s := testSetup(t)
	m := summaries(s.comparison(), 0)
	agg, exh := m["aggregation"], m["exhaustive"]
	if agg.P95Latency >= exh.P95Latency {
		t.Errorf("aggregation p95 %v should cut the tail below exhaustive %v",
			agg.P95Latency, exh.P95Latency)
	}
	if agg.MeanPAtK >= 1.0 {
		t.Error("tail cutting must cost some quality")
	}
	if agg.MeanPAtK < 0.7 {
		t.Errorf("aggregation quality collapsed: %v", agg.MeanPAtK)
	}
}

// TestExtrasRun executes the extension experiments. The two that retrain
// predictor fleets are the slowest tests in the repository but they guard
// real behaviour (speed-factor plumbing, allocation sensitivity).
func TestExtrasRun(t *testing.T) {
	s := testSetup(t)
	for _, exp := range Extras() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(s, &buf); err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced almost no output", exp.ID)
			}
		})
	}
}

// TestHeterogeneityOrdering asserts the straggler study's claim: with a
// 2.5x slow ISN, Cottage's latency advantage over exhaustive search grows
// (the slow node is boosted into the budget or cut), while quality holds.
func TestHeterogeneityOrdering(t *testing.T) {
	s := testSetup(t)
	cfg := s.Config.EngineCfg
	cfg.Cluster.SpeedFactors = make([]float64, cfg.NumShards)
	for i := range cfg.Cluster.SpeedFactors {
		cfg.Cluster.SpeedFactors[i] = 1
	}
	cfg.Cluster.SpeedFactors[0] = 2.5
	het := engine.New(s.Engine.Shards, cfg)
	if _, err := het.TrainFleet(s.TrainQueries[:600], s.Config.PredictCfg); err != nil {
		t.Fatal(err)
	}
	evs := het.EvaluateAll(s.WikiQueries[:800])
	exh := engine.Summarize(het.Run(freshPolicy(s, s.Policies()[0]), evs))
	cot := engine.Summarize(het.Run(s.Policies()[len(s.Policies())-1], evs))
	homExh := summaries(s.comparison(), 0)["exhaustive"]
	homCot := summaries(s.comparison(), 0)["cottage"]
	hetFactor := exh.MeanLatency / cot.MeanLatency
	homFactor := homExh.MeanLatency / homCot.MeanLatency
	if hetFactor <= homFactor {
		t.Errorf("straggler should widen cottage's advantage: hetero %.2fx vs homog %.2fx",
			hetFactor, homFactor)
	}
	if cot.MeanPAtK < 0.85 {
		t.Errorf("cottage quality under heterogeneity = %v", cot.MeanPAtK)
	}
}

// TestFixedSLABehaviour checks the a-priori-budget baseline: everyone
// participates, the budget is the SLA, and looser SLAs use less power
// (more downclocking) at higher latency.
func TestFixedSLABehaviour(t *testing.T) {
	s := testSetup(t)
	tight := engine.Summarize(s.Engine.Run(&baselines.FixedSLA{BudgetMS: 8}, s.WikiEval))
	loose := engine.Summarize(s.Engine.Run(&baselines.FixedSLA{BudgetMS: 40}, s.WikiEval))
	if tight.MeanISNs != float64(len(s.Engine.Shards)) {
		t.Errorf("sla-dvfs must never cut ISNs, got %v", tight.MeanISNs)
	}
	if tight.P95Latency > 8+2 {
		t.Errorf("tight SLA p95 %v should respect the budget", tight.P95Latency)
	}
	if loose.AvgPowerW >= tight.AvgPowerW {
		t.Errorf("loose SLA should downclock more: %v vs %v W", loose.AvgPowerW, tight.AvgPowerW)
	}
	if loose.MeanPAtK < tight.MeanPAtK {
		t.Errorf("loose SLA should never lose quality vs tight: %v vs %v", loose.MeanPAtK, tight.MeanPAtK)
	}
	// Cottage dominates any fixed SLA on latency at comparable power.
	cot := summaries(s.comparison(), 0)["cottage"]
	if cot.MeanLatency >= tight.MeanLatency {
		t.Errorf("cottage %v should beat the tightest SLA %v on latency", cot.MeanLatency, tight.MeanLatency)
	}
}

// TestCachingComposes checks the aggregator cache experiment's claims.
func TestCachingComposes(t *testing.T) {
	s := testSetup(t)
	defer func() { s.Engine.Cache = nil }()
	s.Engine.Cache = nil
	plain := engine.Summarize(s.Engine.Run(core.NewCottage(), s.WikiEval))
	s.Engine.Cache = qcache.NewLRU[[]search.Hit](2048)
	run := s.Engine.Run(core.NewCottage(), s.WikiEval)
	cached := engine.Summarize(run)
	if run.CacheHitRate <= 0.05 {
		t.Fatalf("hit rate %v too low for a Zipfian trace", run.CacheHitRate)
	}
	if cached.MeanLatency >= plain.MeanLatency {
		t.Errorf("cache should reduce latency: %v vs %v", cached.MeanLatency, plain.MeanLatency)
	}
	if cached.AvgPowerW >= plain.AvgPowerW {
		t.Errorf("cache should reduce power: %v vs %v", cached.AvgPowerW, plain.AvgPowerW)
	}
	if cached.MeanPAtK < plain.MeanPAtK-0.02 {
		t.Errorf("cached quality dropped too much: %v vs %v", cached.MeanPAtK, plain.MeanPAtK)
	}
}

// BenchmarkQuickBuild times the full experiment setup — corpus, shard
// builds, trace generation, predictor training, evaluated-query caches —
// at the quick scale. This is the perf baseline for the build-side
// batched-training and fan-out work; serving-side baselines live in the
// root bench_test.go.
func BenchmarkQuickBuild(b *testing.B) {
	cfg := QuickSetupConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
