// Command cottage-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cottage-bench [-experiment all|table1|table2|fig2|fig4|fig6|fig7|fig8|
//	               fig9|fig10|fig11|fig12|fig13|fig14|fig15|ablations]
//	              [-scale quick|full] [-out results.txt]
//
// The full scale matches EXPERIMENTS.md (48K documents, 16 ISNs, 3000
// training queries, 10K evaluation queries per trace) and takes several
// minutes, most of it predictor training and the two trace evaluations.
// The quick scale reproduces every ordering in under a minute.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/harness"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cottage-bench: ")
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		scale      = flag.String("scale", "quick", "setup scale: quick or full")
		outPath    = flag.String("out", "", "write results to this file instead of stdout")
		list       = flag.Bool("list", false, "list experiments and exit")
		csvDir     = flag.String("csv", "", "export raw per-query outcomes of the policy comparison to CSVs in this directory")
		debugAddr  = flag.String("debug-addr", "", "HTTP debug listener for the simulated twin (/metrics, /debug/traces); empty = off")
		replicas   = flag.Int("replicas", 1, "replicas per shard in the simulated twin (the replication extra sweeps its own factors)")
		sloP99MS   = flag.Float64("slo-p99-ms", harness.AutoscaleSLOp99MS, "p99 latency SLO the autoscale extra provisions for")
		replanMS   = flag.Float64("replan-interval-ms", harness.AutoscaleReplanIntervalMS, "closed-loop replan cadence in virtual ms")
		cooldownMS = flag.Float64("scale-cooldown-ms", harness.AutoscaleScaleCooldownMS, "scale-down cooldown in virtual ms (0 = 3x the replan interval)")
		hedgePred  = flag.Bool("hedge-predictive", false, "hedge twin legs at dispatch when the predicted leg latency crosses -hedge-threshold-ms (instead of a fixed timer)")
		hedgeThMS  = flag.Float64("hedge-threshold-ms", 0, "predicted leg latency (ms) above which -hedge-predictive duplicates a leg")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		for _, e := range harness.Extras() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var cfg harness.SetupConfig
	switch *scale {
	case "quick":
		cfg = harness.QuickSetupConfig()
	case "full":
		cfg = harness.DefaultSetupConfig()
	default:
		log.Fatalf("unknown scale %q (want quick or full)", *scale)
	}
	if *replicas < 1 {
		log.Fatalf("-replicas %d < 1", *replicas)
	}
	cfg.EngineCfg.Cluster.Replicas = *replicas
	if *sloP99MS <= 0 {
		log.Fatalf("-slo-p99-ms %v <= 0", *sloP99MS)
	}
	if *replanMS <= 0 {
		log.Fatalf("-replan-interval-ms %v <= 0", *replanMS)
	}
	if *cooldownMS < 0 {
		log.Fatalf("-scale-cooldown-ms %v < 0", *cooldownMS)
	}
	harness.AutoscaleSLOp99MS = *sloP99MS
	harness.AutoscaleReplanIntervalMS = *replanMS
	harness.AutoscaleScaleCooldownMS = *cooldownMS
	if *hedgePred && *hedgeThMS <= 0 {
		log.Fatal("-hedge-predictive needs -hedge-threshold-ms > 0")
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	log.Printf("building %s setup (%d docs, %d ISNs, %d train / %d eval queries)...",
		*scale, cfg.CorpusCfg.NumDocs, cfg.EngineCfg.NumShards, cfg.TrainQueries, cfg.EvalQueries)
	start := time.Now()
	s, err := harness.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("setup ready in %v", time.Since(start).Round(time.Millisecond))
	if *hedgePred {
		// Arm predictive hedging on the shared twin. Replicated runs need
		// somewhere to send the duplicate, so insist on a replicated fleet
		// rather than silently never hedging.
		if *replicas < 2 {
			log.Fatal("-hedge-predictive needs -replicas >= 2")
		}
		s.Engine.Hedge = cluster.Hedge{Predictive: true, ThresholdMS: *hedgeThMS}
	}

	if *debugAddr != "" {
		// The simulated twin shares the live transport's observability
		// surface: experiments that replay under an observer (predacc, and
		// any Run while Obs is attached) land here, with the same phase
		// attribution and flight recorder as the live aggregator. Mid-run
		// scrapes see approximate snapshots; the printed tables stay
		// authoritative.
		s.Engine.Obs = obs.NewObserver(len(s.Engine.Shards), 512)
		s.Engine.Obs.Flight = obs.NewFlightRecorder(32, 32, 0)
		s.Engine.Anatomy = anatomy.NewCollector(1024)
		dbg, err := obs.StartDebug(*debugAddr, s.Engine.Obs,
			obs.Endpoint{Path: "/debug/anatomy", Handler: anatomy.Handler(s.Engine.Anatomy)})
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug listener on http://%s (/metrics, /debug/traces, /debug/anatomy, /debug/flight)", dbg.Addr())
	}

	run := func(e harness.Experiment) {
		fmt.Fprintf(out, "\n=== %s — %s ===\n", e.ID, e.Title)
		t0 := time.Now()
		if err := e.Run(s, out); err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		log.Printf("%s done in %v", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *csvDir != "" {
		log.Printf("exporting per-query CSVs to %s...", *csvDir)
		if err := harness.ExportCSVFromSetup(s, *csvDir); err != nil {
			log.Fatal(err)
		}
	}

	switch *experiment {
	case "all":
		for _, e := range harness.All() {
			run(e)
		}
		return
	case "extras":
		for _, e := range harness.Extras() {
			run(e)
		}
		return
	}
	e, ok := harness.ByID(*experiment)
	if !ok {
		log.Fatalf("unknown experiment %q (use -list)", *experiment)
	}
	run(e)
}
