// Quickstart: build a small sharded search engine, train Cottage's
// predictors, and compare exhaustive search against the coordinated
// time-budget policy — in about eighty lines.
package main

import (
	"fmt"
	"log"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/predict"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

func main() {
	log.SetFlags(0)

	// 1. Synthesize a corpus and shard it topically across 8 ISNs.
	corpusCfg := textgen.DefaultConfig()
	corpusCfg.NumDocs = 6000
	corpusCfg.VocabSize = 6000
	corpus := textgen.Generate(corpusCfg)

	engCfg := engine.DefaultConfig()
	engCfg.NumShards = 8
	shards := engine.BuildShards(corpus, engCfg, 1)
	eng := engine.New(shards, engCfg)

	// 2. Train the per-ISN quality and latency predictors on a training
	//    trace (ground truth is harvested by exhaustive evaluation).
	train := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 1, NumQueries: 600, QPS: 30})
	pcfg := predict.DefaultConfig(engCfg.K)
	pcfg.QualitySteps = 300
	pcfg.LatencySteps = 120
	if _, err := eng.TrainFleet(train, pcfg); err != nil {
		log.Fatal(err)
	}

	// 3. Evaluate a fresh trace once (policy-independent), then replay it
	//    under exhaustive search and under Cottage.
	eval := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 2, NumQueries: 800, QPS: 60})
	evs := eng.EvaluateAll(eval)

	for _, policy := range []engine.Policy{
		baselines.Exhaustive{},
		baselines.NewTaily(),
		core.NewCottage(),
	} {
		sm := engine.Summarize(eng.Run(policy, evs))
		fmt.Printf("%-12s avg %6.2f ms   p95 %6.2f ms   P@10 %.3f   ISNs %5.2f   power %5.2f W\n",
			sm.Policy, sm.MeanLatency, sm.P95Latency, sm.MeanPAtK, sm.MeanISNs, sm.AvgPowerW)
	}

	// 4. Look inside one decision: the per-ISN reports and the budget
	//    Algorithm 1 assigns.
	cot := core.NewCottage()
	eng.Cluster.Reset()
	q := eval[0]
	reports := cot.Reports(eng, q, q.ArrivalMS)
	res := core.DetermineBudget(reports, eng.Cluster.Ladder, core.BudgetOptions{Downclock: true})
	fmt.Printf("\nquery %v -> budget %.2f ms, %d ISNs selected, %d cut\n",
		q.Terms, res.BudgetMS, len(res.Selected), len(res.Cut))
	for _, a := range res.Selected {
		mode := "default"
		if a.Boosted {
			mode = "boosted"
		}
		if a.Downclocked {
			mode = "downclocked"
		}
		fmt.Printf("  ISN %2d at %.1f GHz (%s)\n", a.ISN, a.Freq, mode)
	}
}
