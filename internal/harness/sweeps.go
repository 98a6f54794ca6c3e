package harness

import (
	"fmt"
	"io"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/faults"
	"cottage/internal/qcache"
	"cottage/internal/search"
	"cottage/internal/trace"
)

// Extras returns the extension experiments that go beyond the paper's
// figures: sensitivity sweeps and robustness studies DESIGN.md §5 calls
// out. They are not part of All() because two of them retrain predictor
// fleets; cottage-bench exposes them individually and under
// `-experiment extras`.
func Extras() []Experiment {
	return []Experiment{
		{"frontier", "Extra: quality/resource frontier of the cutoff threshold", CutoffFrontier},
		{"loadsweep", "Extra: policies under 0.5x-2x load", LoadSweep},
		{"budgetcompare", "Extra: per-query budgets vs fixed-SLA DVFS", BudgetCompare},
		{"qr", "Extra: learned shard-cutoff baseline (QR) vs Taily and Cottage", QRStudy},
		{"caching", "Extra: aggregator result cache composed with each policy", Caching},
		{"heterogeneity", "Extra: a 2.5x straggler ISN (per-ISN predictors absorb it)", Heterogeneity},
		{"allocation", "Extra: topical vs round-robin document allocation", AllocationStudy},
		{"availability", "Extra: latency/quality/power with 0-4 of the ISNs failed", Availability},
		{"replication", "Extra: replication factor (R=1-3) x 0-4 failed replicas (availability, quality, latency, power)", Replication},
		{"overload", "Extra: bounded ISN queues under 1x-4x load (shed rate, served p99, budget inflation)", Overload},
		{"predacc", "Extra: rolling predictor-accuracy tracking (obs twin: latency error %, quality hit rate)", PredictorAccuracy},
		{"anytime", "Extra: anytime truncated answers vs the drop-ISN protocol across a deadline ladder", AnytimeSweep},
		{"autoscale", "Extra: closed-loop capacity planning vs fixed R=1-3 under diurnal and flash-crowd traffic", AutoscaleSweep},
		{"hedging", "Extra: fixed-delay vs predictive hedging against an injected straggler replica", HedgingSweep},
		{"anatomy", "Extra: tail-latency anatomy (per-phase p50/p95/p99 attribution, p99 ownership under anytime/hedging, SLO burn-rate paging demo)", Anatomy},
		{"integrity", "Extra: end-to-end data integrity (bit-flip detection ladder, query-time gate, quarantine/repair economics at R=2)", IntegritySweep},
	}
}

// Availability sweeps node failures across the fleet (0 to 4 of the
// paper's 16 ISNs down, victims picked deterministically and nested so
// each row adds one failure to the last) and reports what each policy
// salvages. Two effects compose: dead shards take their top-K documents
// with them (a quality floor no aggregator can recover), and waiting on
// them costs latency — bounded by the budget when there is one, by the
// failure-detection timeout when there is not. Cottage's degraded
// conservative mode (budget = slowest responder's boosted latency) keeps
// every responding contributor in play when predictions go missing.
func Availability(s *Setup, w io.Writer) error {
	defer s.Engine.Cluster.ClearFaults()
	n := len(s.Engine.Shards)
	maxFailed := 4
	if maxFailed >= n {
		maxFailed = n - 1
	}
	cons := core.NewCottage()
	cons.Degraded = core.DegradedConservative
	policies := []struct {
		label string
		p     engine.Policy
	}{
		{"exhaustive", baselines.Exhaustive{}},
		{"cottage-excl", core.NewCottage()},
		{"cottage-cons", cons},
	}
	fmt.Fprintf(w, "%-8s %-14s %10s %10s %8s %10s %10s\n",
		"failed", "policy", "avg ms", "p95 ms", "P@10", "power W", "failfrac")
	for failed := 0; failed <= maxFailed; failed++ {
		s.Engine.Cluster.ClearFaults()
		inj := faults.NewInjector(2022)
		for _, isn := range faults.PickVictims(2022, failed, n) {
			inj.Crash(isn)
		}
		s.Engine.Cluster.Faults = inj
		for _, pol := range policies {
			sm := engine.Summarize(s.Engine.Run(pol.p, s.WikiEval))
			fmt.Fprintf(w, "%-8d %-14s %10.2f %10.2f %8.3f %10.2f %10.3f\n",
				failed, pol.label, sm.MeanLatency, sm.P95Latency, sm.MeanPAtK,
				sm.AvgPowerW, sm.FailedFrac)
		}
	}
	return nil
}

// Replication crosses the replication factor (R = 1, 2, 3 replicas per
// shard) with 0-4 permanently failed replicas and reports availability
// (share of shard groups with a live replica — a known-dead group is
// excluded at selection time, so its loss shows up as quality, not as
// failed dispatches), quality, latency and power. Failures hit the
// row-0 replica of distinct shards (the same deterministic victims as
// Availability), so at R >= 2 every failed shard keeps a live sibling:
// the replica selector routes around the dead node — zero quality loss,
// only the surviving replica's queueing shows up in latency — while
// R = 1 reproduces the degraded-mode quality floor of the Availability
// sweep. Power scales with R (idle replicas still burn watts):
// replication buys availability with the same currency Cottage saves.
func Replication(s *Setup, w io.Writer) error {
	n := len(s.Engine.Shards)
	maxFailed := 4
	if maxFailed >= n {
		maxFailed = n - 1
	}
	pol := core.NewCottage()
	pol.Degraded = core.DegradedConservative
	fmt.Fprintf(w, "%-4s %-8s %10s %8s %10s %10s %10s %10s\n",
		"R", "failed", "avail", "P@10", "avg ms", "p95 ms", "power W", "failover")
	for _, r := range []int{1, 2, 3} {
		cfg := s.Config.EngineCfg
		cfg.Cluster.Replicas = r
		eng := engine.New(s.Engine.Shards, cfg)
		// Replicas serve the same shard at the same speed, so the trained
		// per-ISN fleet transfers as-is: no retraining.
		eng.Fleet = s.Engine.Fleet
		topo := eng.Cluster.Topo()
		for failed := 0; failed <= maxFailed; failed++ {
			eng.Cluster.ClearFaults()
			inj := faults.NewInjector(2022)
			for _, sh := range faults.PickVictims(2022, failed, n) {
				inj.Crash(topo.Node(sh, 0))
			}
			eng.Cluster.Faults = inj
			sm := engine.Summarize(eng.Run(pol, s.WikiEval))
			avail := 1 - float64(eng.Cluster.FailedShardCount())/float64(n)
			fmt.Fprintf(w, "%-4d %-8d %10.3f %8.3f %10.2f %10.2f %10.2f %10.3f\n",
				r, failed, avail, sm.MeanPAtK, sm.MeanLatency,
				sm.P95Latency, sm.AvgPowerW, sm.FailoverFrac)
		}
	}
	return nil
}

// CutoffFrontier sweeps Cottage's zero-probability cutoff and reports the
// quality / active-ISN / power frontier, quantifying how predictor
// confidence trades resources for P@10. The paper operates at the point
// its 95.7%-accurate predictor allows; this shows where our predictor
// puts the same curve.
func CutoffFrontier(s *Setup, w io.Writer) error {
	fmt.Fprintf(w, "%-8s %8s %8s %10s %10s %10s\n", "cutoff", "P@10", "ISNs", "avg ms", "power W", "C_RES")
	for _, dz := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.99} {
		p := core.NewCottage()
		p.DropZeroProb = dz
		sm := engine.Summarize(s.Engine.Run(p, s.WikiEval))
		fmt.Fprintf(w, "%-8.2f %8.3f %8.2f %10.2f %10.2f %10.0f\n",
			dz, sm.MeanPAtK, sm.MeanISNs, sm.MeanLatency, sm.AvgPowerW, sm.MeanCRES)
	}
	return nil
}

// scaleArrivals clones evaluated queries with arrival times compressed or
// stretched by factor (factor 2 = twice the load).
func scaleArrivals(evs []*engine.Evaluated, factor float64) []*engine.Evaluated {
	out := make([]*engine.Evaluated, len(evs))
	for i, ev := range evs {
		clone := *ev
		clone.Query.ArrivalMS = ev.Query.ArrivalMS / factor
		out[i] = &clone
	}
	return out
}

// LoadSweep replays the Wikipedia trace at half, nominal and double the
// arrival rate. Queueing is where Eq. 2's equivalent latency matters:
// Cottage's advantage should grow with load because it keeps per-ISN
// queues short.
func LoadSweep(s *Setup, w io.Writer) error {
	policies := []engine.Policy{
		baselines.Exhaustive{},
		baselines.NewTaily(),
		core.NewCottage(),
	}
	fmt.Fprintf(w, "%-12s", "policy")
	factors := []float64{0.5, 1, 2}
	for _, f := range factors {
		fmt.Fprintf(w, " %9.1fx-lat %9.1fx-pw", f, f)
	}
	fmt.Fprintln(w)
	for _, p := range policies {
		fmt.Fprintf(w, "%-12s", p.Name())
		for _, f := range factors {
			evs := scaleArrivals(s.WikiEval, f)
			sm := engine.Summarize(s.Engine.Run(p, evs))
			fmt.Fprintf(w, " %13.2f %12.2f", sm.MeanLatency, sm.AvgPowerW)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// subsetQueries bounds the retraining experiments.
func subsetQueries(qs []trace.Query, n int) []trace.Query {
	if len(qs) > n {
		return qs[:n]
	}
	return qs
}

// Heterogeneity makes ISN 0 a 2.5x straggler, retrains the per-ISN
// predictors on the heterogeneous fleet, and compares policies. Because
// every ISN trains its own latency model on its own observed service
// times, Cottage's budget absorbs the slow node — it either boosts it
// into the budget or cuts it when its quality does not justify the wait.
// Latency-blind Taily cannot react.
func Heterogeneity(s *Setup, w io.Writer) error {
	cfg := s.Config.EngineCfg
	cfg.Cluster.SpeedFactors = make([]float64, cfg.NumShards)
	for i := range cfg.Cluster.SpeedFactors {
		cfg.Cluster.SpeedFactors[i] = 1
	}
	cfg.Cluster.SpeedFactors[0] = 2.5

	het := engine.New(s.Engine.Shards, cfg)
	if _, err := het.TrainFleet(subsetQueries(s.TrainQueries, 1200), s.Config.PredictCfg); err != nil {
		return fmt.Errorf("harness: heterogeneity retrain: %w", err)
	}
	hetEvs := het.EvaluateAll(subsetQueries(s.WikiQueries, 2500))
	homEvs := s.WikiEval[:len(hetEvs)]

	fmt.Fprintf(w, "%-12s %16s %16s %14s %14s\n",
		"policy", "homog avg ms", "hetero avg ms", "homog P@10", "hetero P@10")
	for _, p := range []engine.Policy{baselines.Exhaustive{}, baselines.NewTaily(), core.NewCottage()} {
		hom := engine.Summarize(s.Engine.Run(p, homEvs))
		hetSm := engine.Summarize(het.Run(p, hetEvs))
		fmt.Fprintf(w, "%-12s %16.2f %16.2f %14.3f %14.3f\n",
			p.Name(), hom.MeanLatency, hetSm.MeanLatency, hom.MeanPAtK, hetSm.MeanPAtK)
	}
	exh := engine.Summarize(het.Run(baselines.Exhaustive{}, hetEvs))
	cot := engine.Summarize(het.Run(core.NewCottage(), hetEvs))
	fmt.Fprintf(w, "with the straggler, cottage is %.2fx faster than exhaustive (quality %.3f)\n",
		exh.MeanLatency/cot.MeanLatency, cot.MeanPAtK)
	return nil
}

// AllocationStudy rebuilds the corpus with round-robin (source-order)
// allocation and reruns the selective policies. Selective search — and
// Cottage's ISN cutoff — depend on topical skew; with statistically
// identical shards, every shard contributes to most queries and cutting
// is either useless or harmful (Fig. 2b's premise, inverted).
func AllocationStudy(s *Setup, w io.Writer) error {
	rr := engine.New(engine.BuildShardsRoundRobin(s.Corpus, s.Config.EngineCfg), s.Config.EngineCfg)
	if _, err := rr.TrainFleet(subsetQueries(s.TrainQueries, 1200), s.Config.PredictCfg); err != nil {
		return fmt.Errorf("harness: allocation retrain: %w", err)
	}
	rrEvs := rr.EvaluateAll(subsetQueries(s.WikiQueries, 2500))
	topEvs := s.WikiEval[:len(rrEvs)]

	fmt.Fprintf(w, "%-12s %14s %14s %12s %12s\n",
		"policy", "topical ISNs", "roundrob ISNs", "topical P@10", "roundrob P@10")
	for _, p := range []engine.Policy{baselines.NewTaily(), core.NewCottage()} {
		top := engine.Summarize(s.Engine.Run(p, topEvs))
		rrS := engine.Summarize(rr.Run(p, rrEvs))
		fmt.Fprintf(w, "%-12s %14.2f %14.2f %12.3f %12.3f\n",
			p.Name(), top.MeanISNs, rrS.MeanISNs, top.MeanPAtK, rrS.MeanPAtK)
	}
	return nil
}

// BudgetCompare contrasts Cottage's per-query budgets with the class of
// power managers the paper positions itself against (Pegasus, TimeTrader,
// Rubik — Section VI): a fixed a-priori SLA plus DVFS slack reclamation.
// No single SLA matches Cottage on both sides: tight SLAs lose quality,
// loose SLAs lose latency and power.
func BudgetCompare(s *Setup, w io.Writer) error {
	fmt.Fprintf(w, "%-16s %10s %10s %8s %8s\n", "policy", "avg ms", "p95 ms", "P@10", "power W")
	for _, sla := range []float64{8, 15, 25, 40} {
		p := &baselines.FixedSLA{BudgetMS: sla}
		sm := engine.Summarize(s.Engine.Run(p, s.WikiEval))
		fmt.Fprintf(w, "sla-dvfs %4.0fms %10.2f %10.2f %8.3f %8.2f\n",
			sla, sm.MeanLatency, sm.P95Latency, sm.MeanPAtK, sm.AvgPowerW)
	}
	sm := engine.Summarize(s.Engine.Run(core.NewCottage(), s.WikiEval))
	fmt.Fprintf(w, "%-16s %10.2f %10.2f %8.3f %8.2f\n",
		"cottage", sm.MeanLatency, sm.P95Latency, sm.MeanPAtK, sm.AvgPowerW)
	return nil
}

// Caching measures the aggregator-side LRU result cache (reference [1] of
// the paper) composed with each policy: Zipfian traces repeat heavily, so
// even a small cache answers a large share of queries without touching an
// ISN, compounding every policy's latency and power savings.
func Caching(s *Setup, w io.Writer) error {
	defer func() { s.Engine.Cache = nil }()
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %10s\n",
		"policy", "uncached ms", "cached ms", "uncached W", "cached W", "hit rate")
	for _, p := range []engine.Policy{baselines.Exhaustive{}, core.NewCottage()} {
		s.Engine.Cache = nil
		plain := engine.Summarize(s.Engine.Run(p, s.WikiEval))
		s.Engine.Cache = qcache.NewLRU[[]search.Hit](2048)
		cached := s.Engine.Run(p, s.WikiEval)
		cs := engine.Summarize(cached)
		fmt.Fprintf(w, "%-12s %12.2f %12.2f %12.2f %12.2f %10.3f\n",
			p.Name(), plain.MeanLatency, cs.MeanLatency, plain.AvgPowerW, cs.AvgPowerW,
			cached.CacheHitRate)
	}
	return nil
}

// QRStudy trains and evaluates the learned-cutoff baseline (Mohammad et
// al., SIGIR'18 — the paper's reference [19]): same shard ranking as
// Taily, but a trained model picks the per-query cutoff depth instead of
// a fixed threshold. It improves on Taily's fixed threshold yet remains
// latency-blind, so Cottage still wins the response-time and power
// columns.
func QRStudy(s *Setup, w io.Writer) error {
	qr, err := baselines.NewQR(s.Engine, s.TrainData, s.TrainQueries, baselines.DefaultQRConfig())
	if err != nil {
		return fmt.Errorf("harness: training QR: %w", err)
	}
	fmt.Fprintf(w, "%-12s %10s %8s %8s %10s\n", "policy", "avg ms", "P@10", "ISNs", "power W")
	for _, p := range []engine.Policy{baselines.NewTaily(), qr, core.NewCottage()} {
		sm := engine.Summarize(s.Engine.Run(p, s.WikiEval))
		fmt.Fprintf(w, "%-12s %10.2f %8.3f %8.2f %10.2f\n",
			p.Name(), sm.MeanLatency, sm.MeanPAtK, sm.MeanISNs, sm.AvgPowerW)
	}
	return nil
}
