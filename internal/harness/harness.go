// Package harness builds the full experimental setup (corpus, shards,
// cluster, predictors, traces, baselines) and provides one driver per
// table/figure of the paper's evaluation (see DESIGN.md's experiment
// index). Every driver is deterministic given the setup seed and renders
// the same rows/series the paper reports.
package harness

import (
	"fmt"
	"io"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/par"
	"cottage/internal/predict"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// SetupConfig controls the scale of the whole experiment.
type SetupConfig struct {
	CorpusCfg  textgen.Config
	EngineCfg  engine.Config
	HomeShards int
	Spill      float64
	AllocSeed  uint64

	TrainQueries int
	EvalQueries  int
	QPS          float64

	PredictCfg predict.Config
	RankSCfg   baselines.RankSConfig
}

// DefaultSetupConfig is the full-scale configuration behind the numbers
// in EXPERIMENTS.md: the default 48K-document corpus on 16 ISNs, 3000
// training queries and 10K evaluation queries per trace.
func DefaultSetupConfig() SetupConfig {
	return SetupConfig{
		CorpusCfg:    textgen.DefaultConfig(),
		EngineCfg:    engine.DefaultConfig(),
		HomeShards:   3,
		Spill:        0.15,
		AllocSeed:    5,
		TrainQueries: 3000,
		EvalQueries:  10000,
		QPS:          45,
		PredictCfg:   predict.DefaultConfig(10),
		RankSCfg:     baselines.DefaultRankSConfig(),
	}
}

// QuickSetupConfig is a reduced configuration for tests and examples:
// same structure, ~10x faster.
func QuickSetupConfig() SetupConfig {
	cfg := DefaultSetupConfig()
	cfg.CorpusCfg.NumDocs = 9000
	cfg.CorpusCfg.VocabSize = 9000
	cfg.CorpusCfg.NumTopics = 32
	cfg.CorpusCfg.TopicTermCount = 200
	cfg.TrainQueries = 900
	cfg.EvalQueries = 1200
	cfg.PredictCfg.QualitySteps = 400
	cfg.PredictCfg.LatencySteps = 160
	return cfg
}

// Setup is everything the experiments need, built once and shared.
type Setup struct {
	Config SetupConfig
	Corpus *textgen.Corpus
	Alloc  [][]int
	Engine *engine.Engine

	TrainQueries  []trace.Query
	WikiQueries   []trace.Query
	LuceneQueries []trace.Query

	// Evaluated traces (policy-independent pass, shared across policies).
	WikiEval   []*engine.Evaluated
	LuceneEval []*engine.Evaluated

	// TrainData is kept for predictor-accuracy experiments (Figs. 7/8).
	TrainData *predict.Dataset

	RankS *baselines.RankS

	// cached comparison runs (see experiments.go).
	cmp *Comparison
	abl *Comparison
}

// Build constructs the setup: corpus, shards, traces, trained predictors,
// and the evaluated query caches.
func Build(cfg SetupConfig) (*Setup, error) {
	s := &Setup{Config: cfg}
	s.Corpus = textgen.Generate(cfg.CorpusCfg)
	s.Alloc = s.Corpus.AllocateTopical(cfg.EngineCfg.NumShards, cfg.HomeShards, cfg.Spill, cfg.AllocSeed)

	shards := engine.BuildFromAllocation(s.Corpus, s.Alloc, cfg.EngineCfg)
	s.Engine = engine.New(shards, cfg.EngineCfg)

	// The three traces are independently seeded reads of the corpus;
	// generate them concurrently.
	traceCfgs := []trace.Config{
		{Kind: trace.Wikipedia, Seed: 101, NumQueries: cfg.TrainQueries, QPS: cfg.QPS},
		{Kind: trace.Wikipedia, Seed: 202, NumQueries: cfg.EvalQueries, QPS: cfg.QPS},
		{Kind: trace.Lucene, Seed: 303, NumQueries: cfg.EvalQueries, QPS: cfg.QPS},
	}
	traces := make([][]trace.Query, len(traceCfgs))
	par.For(len(traceCfgs), func(i int) {
		traces[i] = trace.Generate(s.Corpus, traceCfgs[i])
	})
	s.TrainQueries, s.WikiQueries, s.LuceneQueries = traces[0], traces[1], traces[2]

	ds, err := s.Engine.TrainFleet(s.TrainQueries, cfg.PredictCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	s.TrainData = ds

	s.WikiEval = s.Engine.EvaluateAll(s.WikiQueries)
	s.LuceneEval = s.Engine.EvaluateAll(s.LuceneQueries)

	s.RankS = baselines.NewRankS(s.Corpus, s.Alloc, cfg.EngineCfg.BM25, cfg.RankSCfg)
	return s, nil
}

// Policies returns the five headline policies of Figs. 10–14 in paper
// order.
func (s *Setup) Policies() []engine.Policy {
	return []engine.Policy{
		baselines.Exhaustive{},
		baselines.NewAggregation(),
		s.RankS,
		baselines.NewTaily(),
		core.NewCottage(),
	}
}

// AblationPolicies returns the Fig. 15 set.
func (s *Setup) AblationPolicies() []engine.Policy {
	return []engine.Policy{
		baselines.Exhaustive{},
		baselines.NewTaily(),
		core.NewCottageNoML(),
		core.NewCottageISN(),
		core.NewCottage(),
	}
}

// TraceName selects an evaluated trace by name ("wikipedia"/"lucene").
func (s *Setup) TraceEval(kind trace.Kind) []*engine.Evaluated {
	if kind == trace.Lucene {
		return s.LuceneEval
	}
	return s.WikiEval
}

// Comparison is the result of replaying both traces under a policy set.
type Comparison struct {
	Traces   []trace.Kind
	Policies []string
	// Summaries[t][p] aggregates policy p on trace t.
	Summaries [][]engine.Summary
	// Results[t][p] keeps the raw outcomes for scatter/timeline figures.
	Results [][]engine.RunResult
}

// RunComparison replays both traces under each policy.
func (s *Setup) RunComparison(policies []engine.Policy) *Comparison {
	c := &Comparison{Traces: []trace.Kind{trace.Wikipedia, trace.Lucene}}
	for _, p := range policies {
		c.Policies = append(c.Policies, p.Name())
	}
	for _, kind := range c.Traces {
		evs := s.TraceEval(kind)
		var sums []engine.Summary
		var results []engine.RunResult
		for _, p := range policies {
			r := s.Engine.Run(freshPolicy(s, p), evs)
			sums = append(sums, engine.Summarize(r))
			results = append(results, r)
		}
		c.Summaries = append(c.Summaries, sums)
		c.Results = append(c.Results, results)
	}
	return c
}

// freshPolicy re-instantiates stateful policies so each trace replay
// starts clean.
func freshPolicy(s *Setup, p engine.Policy) engine.Policy {
	switch p.(type) {
	case *baselines.Aggregation:
		return baselines.NewAggregation()
	default:
		return p
	}
}

// RenderComparison prints a per-trace summary table.
func RenderComparison(w io.Writer, c *Comparison) {
	for ti, kind := range c.Traces {
		fmt.Fprintf(w, "\n== %s trace ==\n", kind)
		fmt.Fprintf(w, "%-14s %10s %17s %10s %8s %8s %8s %10s\n",
			"policy", "avg ms", "95%-CI", "p95 ms", "P@10", "ISNs", "power W", "C_RES")
		for pi := range c.Policies {
			sm := c.Summaries[ti][pi]
			fmt.Fprintf(w, "%-14s %10.2f [%6.2f, %6.2f] %10.2f %8.3f %8.2f %8.2f %10.0f\n",
				sm.Policy, sm.MeanLatency, sm.LatencyCILo, sm.LatencyCIHi, sm.P95Latency,
				sm.MeanPAtK, sm.MeanISNs, sm.AvgPowerW, sm.MeanCRES)
		}
	}
}

// ExportCSVFromSetup runs (or reuses) the headline comparison and exports
// its raw per-query outcomes as CSVs (see ExportCSV): the cottage-bench
// entry point for -csv.
func ExportCSVFromSetup(s *Setup, dir string) error {
	return ExportCSV(dir, s.comparison())
}
