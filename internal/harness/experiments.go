package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/features"
	"cottage/internal/predict"
	"cottage/internal/search"
	"cottage/internal/stats"
	"cottage/internal/trace"
)

// Experiment is one reproducible table/figure from the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Setup, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: features for quality prediction", Table1},
		{"table2", "Table II: features for latency prediction", Table2},
		{"fig2", "Fig. 2: latency and quality-contribution variation", Fig2},
		{"fig3", "Fig. 3: policy comparison on one query", Fig3},
		{"fig4", "Fig. 4: query latency vs CPU frequency", Fig4},
		{"fig6", "Fig. 6: score histogram vs fitted Gamma", Fig6},
		{"fig7", "Fig. 7: quality prediction accuracy and inference time", Fig7},
		{"fig8", "Fig. 8: latency prediction accuracy and inference time", Fig8},
		{"fig9", "Fig. 9: time budget determination example", Fig9},
		{"fig10", "Fig. 10: overall latency", Fig10},
		{"fig11", "Fig. 11: P@10 search quality", Fig11},
		{"fig12", "Fig. 12: latency and quality distributions", Fig12},
		{"fig13", "Fig. 13: average number of selected ISNs", Fig13},
		{"fig14", "Fig. 14: power consumption", Fig14},
		{"fig15", "Fig. 15: impact of ML prediction and coordination", Fig15},
		{"ablations", "Extra: design-choice ablations (boost, downclock, K/2, oracle)", Ablations},
	}
}

// ByID finds an experiment in All() or Extras().
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Extras() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// comparison lazily runs and caches the headline policy comparison.
func (s *Setup) comparison() *Comparison {
	if s.cmp == nil {
		s.cmp = s.RunComparison(s.Policies())
	}
	return s.cmp
}

// ablation lazily runs and caches the Fig. 15 comparison.
func (s *Setup) ablation() *Comparison {
	if s.abl == nil {
		s.abl = s.RunComparison(s.AblationPolicies())
	}
	return s.abl
}

// exampleTerm returns a mid-frequency term present on shard 0, used by the
// feature-table experiments (the paper uses "Tokyo"/"Toyota").
func (s *Setup) exampleTerm(minDF int) string {
	sh := s.Engine.Shards[0]
	best, bestDF := "", 0
	for i := range sh.Terms {
		df := sh.Terms[i].Stats.PostingLen
		if df >= minDF && (bestDF == 0 || df < bestDF) {
			best, bestDF = sh.Terms[i].Text, df
		}
	}
	if best == "" {
		best = sh.Terms[0].Text
	}
	return best
}

// Table1 prints the quality-prediction feature vector for an example term.
func Table1(s *Setup, w io.Writer) error {
	term := s.exampleTerm(200)
	vec, ok := features.Quality(s.Engine.Shards[0], []string{term})
	if !ok {
		return fmt.Errorf("harness: example term %q missing", term)
	}
	fmt.Fprintf(w, "Features for quality prediction — example for %q on ISN-0\n", term)
	for i, name := range features.QualityNames {
		fmt.Fprintf(w, "  %-45s %12.3f\n", name, vec[i])
	}
	return nil
}

// Table2 prints the latency-prediction feature vector for an example term.
func Table2(s *Setup, w io.Writer) error {
	term := s.exampleTerm(500)
	vec, ok := features.Latency(s.Engine.Shards[0], []string{term})
	if !ok {
		return fmt.Errorf("harness: example term %q missing", term)
	}
	fmt.Fprintf(w, "Features for latency prediction — example for %q on ISN-0\n", term)
	for i, name := range features.LatencyNames {
		fmt.Fprintf(w, "  %-55s %12.3f\n", name, vec[i])
	}
	return nil
}

// Fig2 reproduces the motivation figure: (a) the latency histogram of the
// Wikipedia trace under exhaustive search, (b) the distribution of how
// many ISNs contribute at least one top-10 document per query.
func Fig2(s *Setup, w io.Writer) error {
	c := s.comparison()
	exh := c.Results[0][0] // exhaustive on the Wikipedia trace
	lats := make([]float64, len(exh.Outcomes))
	for i, o := range exh.Outcomes {
		lats[i] = o.LatencyMS
	}
	maxLat := stats.Max(lats)
	binW := 5.0
	bins := int(maxLat/binW) + 1
	h := stats.NewHistogram(lats, 0, float64(bins)*binW, bins)
	fmt.Fprintf(w, "(a) Exhaustive-search latency histogram, %d queries (Wikipedia trace)\n", len(lats))
	for i := range h.Counts {
		if h.Counts[i] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %5.0f-%-5.0f ms  %6d  (%5.1f%%)\n",
			float64(i)*binW, float64(i+1)*binW, h.Counts[i], 100*h.Fraction(i))
	}

	counts := make([]int, len(s.Engine.Shards)+1)
	for _, ev := range s.WikiEval {
		n := 0
		for si := range ev.PerShard {
			if search.Overlap(ev.PerShard[si].Hits, ev.TopKSet) > 0 {
				n++
			}
		}
		counts[n]++
	}
	fmt.Fprintf(w, "(b) ISNs with non-zero quality contribution per query\n")
	for n, cnt := range counts {
		if cnt == 0 {
			continue
		}
		fmt.Fprintf(w, "  %2d ISNs  %6d queries\n", n, cnt)
	}
	return nil
}

// Fig4 sweeps the frequency ladder for the heaviest Wikipedia query and
// reports the service-time curve (the paper measures 97 ms -> 40 ms from
// 1.2 to 2.7 GHz, a 2.43x reduction; the model gives exactly 1/f).
func Fig4(s *Setup, w io.Writer) error {
	heaviest := 0.0
	for _, ev := range s.WikiEval {
		for si := range ev.Cycles {
			if ev.Cycles[si] > heaviest {
				heaviest = ev.Cycles[si]
			}
		}
	}
	fmt.Fprintf(w, "Service time of the heaviest per-ISN query (%.0f cycles) across the DVFS ladder\n", heaviest)
	base := 0.0
	for _, f := range s.Engine.Cluster.Ladder.Levels {
		ms := cluster.ServiceMS(heaviest, f)
		if base == 0 {
			base = ms
		}
		fmt.Fprintf(w, "  %.1f GHz  %8.2f ms  (%.2fx vs %.1f GHz)\n",
			f, ms, base/ms, s.Engine.Cluster.Ladder.Levels[0])
	}
	return nil
}

// Fig6 fits a Gamma to a real per-term score distribution and shows where
// the fit misses the histogram (the root cause of Taily's cutoff errors).
func Fig6(s *Setup, w io.Writer) error {
	sh := s.Engine.Shards[0]
	term := s.exampleTerm(500)
	ti, _ := sh.Lookup(term)
	scores := sh.Scores(ti)
	g, err := stats.FitGamma(scores)
	if err != nil {
		return fmt.Errorf("harness: fig6 gamma fit: %w", err)
	}
	sum := stats.Summarize(scores)
	h := stats.NewHistogram(scores, 0, sum.Max*1.001, 20)
	fmt.Fprintf(w, "Score histogram for %q on ISN-0 (%d postings) vs fitted Gamma(shape=%.3f, scale=%.3f)\n",
		term, len(scores), g.Shape, g.Scale)
	fmt.Fprintf(w, "  %-16s %10s %10s\n", "score bin", "observed", "gamma")
	total := float64(h.Total())
	binW := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i := range h.Counts {
		lo := h.Lo + float64(i)*binW
		model := (g.CDF(lo+binW) - g.CDF(lo)) * total
		fmt.Fprintf(w, "  %6.2f-%-8.2f %10d %10.1f\n", lo, lo+binW, h.Counts[i], model)
	}
	kth := ti.Stats.KthScore
	empirical := 0
	for _, sc := range scores {
		if sc > kth {
			empirical++
		}
	}
	model := g.TailProb(kth) * float64(len(scores))
	fmt.Fprintf(w, "  P(X > Kth score %.2f): empirical %d docs, Gamma model %.1f docs\n", kth, empirical, model)
	fmt.Fprintf(w, "  Kolmogorov-Smirnov distance: %.4f\n", stats.KSDistance(scores, g))
	return nil
}

// heldOutDataset converts already-evaluated queries into a predict.Dataset
// so Figs. 7/8 measure held-out accuracy without re-running retrieval.
func heldOutDataset(s *Setup, evs []*engine.Evaluated) *predict.Dataset {
	ds := &predict.Dataset{K: s.Engine.K, PerISN: make([][]predict.Sample, len(s.Engine.Shards))}
	for si := range ds.PerISN {
		ds.PerISN[si] = make([]predict.Sample, len(evs))
	}
	for qi, ev := range evs {
		lists := make([][]search.Hit, len(ev.PerShard))
		for si := range ev.PerShard {
			lists[si] = ev.PerShard[si].Hits
		}
		inK2 := search.DocSet(search.Merge(s.Engine.K/2, lists...))
		for si, sh := range s.Engine.Shards {
			qv, qok := features.Quality(sh, ev.Query.Terms)
			lv, _ := features.Latency(sh, ev.Query.Terms)
			ds.PerISN[si][qi] = predict.Sample{
				QualityVec: qv,
				LatencyVec: lv,
				Matched:    qok,
				QK:         search.Overlap(ev.PerShard[si].Hits, ev.TopKSet),
				QK2:        search.Overlap(ev.PerShard[si].Hits, inK2),
				Cycles:     ev.Cycles[si],
			}
		}
	}
	return ds
}

// inferenceMicros measures real wall-clock inference time per query for
// one ISN's predictor pair — the right-hand axes of Figs. 7b/8b.
func inferenceMicros(s *Setup, isn int, n int) float64 {
	sh := s.Engine.Shards[isn]
	p := s.Engine.Fleet.Predictors[isn]
	queries := s.WikiQueries
	if n > len(queries) {
		n = len(queries)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = p.Predict(sh, queries[i].Terms)
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// Fig7 reports per-ISN quality-prediction accuracy on held-out queries
// plus measured inference time.
func Fig7(s *Setup, w io.Writer) error {
	n := len(s.WikiEval)
	if n > 1500 {
		n = 1500
	}
	ds := heldOutDataset(s, s.WikiEval[:n])
	accs := predict.Evaluate(s.Engine.Fleet, ds)
	fmt.Fprintf(w, "%-5s %10s %10s %10s %12s\n", "ISN", "exact", "within-1", "zero-det", "infer us")
	mean1, meanZ := 0.0, 0.0
	for _, a := range accs {
		us := inferenceMicros(s, a.ISN, 200)
		fmt.Fprintf(w, "%-5d %10.3f %10.3f %10.3f %12.2f\n",
			a.ISN, a.QualityExact, a.QualityWithin1, a.QualityZero, us)
		mean1 += a.QualityWithin1
		meanZ += a.QualityZero
	}
	fmt.Fprintf(w, "mean: within-1 %.3f, zero-detection %.3f (paper: 94.7%% avg accuracy, <=41 us inference)\n",
		mean1/float64(len(accs)), meanZ/float64(len(accs)))
	return nil
}

// Fig8 reports per-ISN latency-prediction accuracy on held-out queries.
func Fig8(s *Setup, w io.Writer) error {
	n := len(s.WikiEval)
	if n > 1500 {
		n = 1500
	}
	ds := heldOutDataset(s, s.WikiEval[:n])
	accs := predict.Evaluate(s.Engine.Fleet, ds)
	fmt.Fprintf(w, "%-5s %10s %10s %12s\n", "ISN", "exact-bin", "within-1", "infer us")
	mean := 0.0
	for _, a := range accs {
		us := inferenceMicros(s, a.ISN, 200)
		fmt.Fprintf(w, "%-5d %10.3f %10.3f %12.2f\n", a.ISN, a.LatencyExact, a.LatencyWithin1, us)
		mean += a.LatencyWithin1
	}
	fmt.Fprintf(w, "mean: within-1 %.3f (paper: 87.23%% accuracy, ~70 us inference)\n", mean/float64(len(accs)))
	return nil
}

// Fig9 walks Algorithm 1 on a query where the optimizer both cuts and
// boosts, printing the per-ISN report table and the chosen budget.
func Fig9(s *Setup, w io.Writer) error {
	cot := core.NewCottage()
	s.Engine.Cluster.Reset()
	// Find a query whose decision includes a boost and a stage-2 cut.
	var chosen trace.Query
	var reports []core.ISNReport
	var res core.BudgetResult
	found := false
	for _, ev := range s.WikiEval {
		r := cot.Reports(s.Engine, ev.Query, ev.Query.ArrivalMS)
		b := core.DetermineBudget(r, s.Engine.Cluster.Ladder, core.BudgetOptions{Downclock: cot.Downclock})
		boosts := 0
		for _, a := range b.Selected {
			if a.Boosted {
				boosts++
			}
		}
		if boosts > 0 && len(b.Cut) > 0 && len(b.Selected) >= 3 {
			chosen, reports, res, found = ev.Query, r, b, true
			break
		}
	}
	if !found {
		return fmt.Errorf("harness: no illustrative query found for fig9")
	}
	fmt.Fprintf(w, "Query %v — per-ISN reports and Algorithm 1 decision\n", chosen.Terms)
	fmt.Fprintf(w, "%-5s %4s %5s %10s %10s  %s\n", "ISN", "Q^K", "Q^K/2", "L_cur ms", "L_boost ms", "decision")
	decision := make(map[int]string)
	for _, c := range res.Cut {
		decision[c] = "cut"
	}
	for _, a := range res.Selected {
		switch {
		case a.Boosted:
			decision[a.ISN] = fmt.Sprintf("boost to %.1f GHz", a.Freq)
		case a.Downclocked:
			decision[a.ISN] = fmt.Sprintf("downclock to %.1f GHz", a.Freq)
		default:
			decision[a.ISN] = "keep at default"
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].LBoosted > reports[j].LBoosted })
	for _, r := range reports {
		fmt.Fprintf(w, "%-5d %4d %5d %10.2f %10.2f  %s\n",
			r.ISN, r.QK, r.QK2, r.LCurrent, r.LBoosted, decision[r.ISN])
	}
	fmt.Fprintf(w, "time budget T = %.2f ms\n", res.BudgetMS)
	return nil
}

// Fig10 prints average and 95th-percentile latency per policy per trace,
// plus a coarse latency timeline for the Wikipedia trace.
func Fig10(s *Setup, w io.Writer) error {
	c := s.comparison()
	for ti, kind := range c.Traces {
		fmt.Fprintf(w, "(%s trace)\n", kind)
		fmt.Fprintf(w, "  %-14s %10s %10s %10s\n", "policy", "avg ms", "p95 ms", "p99 ms")
		for pi := range c.Policies {
			sm := c.Summaries[ti][pi]
			fmt.Fprintf(w, "  %-14s %10.2f %10.2f %10.2f\n", sm.Policy, sm.MeanLatency, sm.P95Latency, sm.P99Latency)
		}
		exh := c.Summaries[ti][0]
		cot := c.Summaries[ti][len(c.Policies)-1]
		fmt.Fprintf(w, "  cottage vs exhaustive: avg %.2fx lower, p95 %.2fx lower\n",
			exh.MeanLatency/cot.MeanLatency, exh.P95Latency/cot.P95Latency)
	}
	// Timeline (Fig. 10a): mean latency in 20 time buckets, plus a
	// sparkline per policy for quick visual comparison.
	fmt.Fprintf(w, "(Wikipedia trace timeline, mean latency per time bucket)\n")
	dur := trace.DurationMS(s.WikiQueries)
	const buckets = 20
	fmt.Fprintf(w, "  %-12s", "bucket")
	for pi := range c.Policies {
		fmt.Fprintf(w, " %12s", c.Policies[pi])
	}
	fmt.Fprintln(w)
	sums := make([][]float64, buckets)
	cnts := make([][]int, buckets)
	for b := range sums {
		sums[b] = make([]float64, len(c.Policies))
		cnts[b] = make([]int, len(c.Policies))
	}
	for pi := range c.Policies {
		for _, o := range c.Results[0][pi].Outcomes {
			b := int(o.ArrivalMS / dur * buckets)
			if b >= buckets {
				b = buckets - 1
			}
			sums[b][pi] += o.LatencyMS
			cnts[b][pi]++
		}
	}
	for b := 0; b < buckets; b++ {
		fmt.Fprintf(w, "  %5.0f-%-6.0fs", float64(b)*dur/buckets/1000, float64(b+1)*dur/buckets/1000)
		for pi := range c.Policies {
			v := 0.0
			if cnts[b][pi] > 0 {
				v = sums[b][pi] / float64(cnts[b][pi])
			}
			fmt.Fprintf(w, " %12.2f", v)
		}
		fmt.Fprintln(w)
	}
	for pi := range c.Policies {
		series := make([]float64, buckets)
		for b := 0; b < buckets; b++ {
			if cnts[b][pi] > 0 {
				series[b] = sums[b][pi] / float64(cnts[b][pi])
			}
		}
		fmt.Fprintf(w, "  %-14s %s\n", c.Policies[pi], Sparkline(series))
	}
	return nil
}

// Fig11 prints average P@10 per policy per trace.
func Fig11(s *Setup, w io.Writer) error {
	c := s.comparison()
	fmt.Fprintf(w, "%-14s %12s %12s\n", "policy", "wikipedia", "lucene")
	for pi := range c.Policies {
		fmt.Fprintf(w, "%-14s %12.3f %12.3f\n", c.Policies[pi],
			c.Summaries[0][pi].MeanPAtK, c.Summaries[1][pi].MeanPAtK)
	}
	vals := make([]float64, len(c.Policies))
	for pi := range c.Policies {
		vals[pi] = c.Summaries[0][pi].MeanPAtK
	}
	RenderBars(w, "(wikipedia P@10)", "", c.Policies, vals, 40)
	return nil
}

// Fig12 summarizes the per-query latency/quality scatter: the share of
// queries in the "good" region (high quality, low latency) per policy,
// plus a 2D density over latency and quality bins.
func Fig12(s *Setup, w io.Writer) error {
	c := s.comparison()
	exh := c.Summaries[0][0]
	latCut := exh.MeanLatency
	fmt.Fprintf(w, "share of Wikipedia queries with P@10 >= 0.9 and latency <= %.1f ms (exhaustive mean):\n", latCut)
	for pi := range c.Policies {
		good := 0
		outs := c.Results[0][pi].Outcomes
		for _, o := range outs {
			if o.PAtK >= 0.9 && o.LatencyMS <= latCut {
				good++
			}
		}
		fmt.Fprintf(w, "  %-14s %6.1f%%\n", c.Policies[pi], 100*float64(good)/float64(len(outs)))
	}
	// Density: quality rows x latency columns for taily, rank-s, cottage.
	for _, pi := range []int{3, 2, len(c.Policies) - 1} {
		fmt.Fprintf(w, "(%s) quality x latency density (rows: P@10 bin, cols: latency quartile of exhaustive)\n", c.Policies[pi])
		outs := c.Results[0][pi].Outcomes
		qs := []float64{exh.MeanLatency / 2, exh.MeanLatency, exh.P95Latency, math.Inf(1)}
		grid := make([][4]int, 5)
		for _, o := range outs {
			qb := int(o.PAtK * 4.999)
			lb := 0
			for lb < 3 && o.LatencyMS > qs[lb] {
				lb++
			}
			grid[qb][lb]++
		}
		for qb := 4; qb >= 0; qb-- {
			fmt.Fprintf(w, "  P@10 %.1f-%.1f: %6d %6d %6d %6d\n",
				float64(qb)/5, float64(qb+1)/5, grid[qb][0], grid[qb][1], grid[qb][2], grid[qb][3])
		}
	}
	return nil
}

// Fig13 prints the average number of selected ISNs per policy per trace.
func Fig13(s *Setup, w io.Writer) error {
	c := s.comparison()
	fmt.Fprintf(w, "%-14s %12s %12s\n", "policy", "wikipedia", "lucene")
	for pi := range c.Policies {
		fmt.Fprintf(w, "%-14s %12.2f %12.2f\n", c.Policies[pi],
			c.Summaries[0][pi].MeanISNs, c.Summaries[1][pi].MeanISNs)
	}
	return nil
}

// Fig14 prints average package power per policy per trace, plus idle.
func Fig14(s *Setup, w io.Writer) error {
	c := s.comparison()
	fmt.Fprintf(w, "%-14s %12s %12s\n", "policy", "wikipedia W", "lucene W")
	fmt.Fprintf(w, "%-14s %12.2f %12.2f\n", "idle",
		s.Engine.Cluster.Meter.Model().IdleWatts, s.Engine.Cluster.Meter.Model().IdleWatts)
	for pi := range c.Policies {
		fmt.Fprintf(w, "%-14s %12.2f %12.2f\n", c.Policies[pi],
			c.Summaries[0][pi].AvgPowerW, c.Summaries[1][pi].AvgPowerW)
	}
	exh := c.Summaries[0][0].AvgPowerW
	cot := c.Summaries[0][len(c.Policies)-1].AvgPowerW
	idle := s.Engine.Cluster.Meter.Model().IdleWatts
	fmt.Fprintf(w, "cottage saves %.1f%% of exhaustive's above-idle power (wikipedia)\n",
		100*(exh-cot)/(exh-idle))
	vals := make([]float64, len(c.Policies))
	for pi := range c.Policies {
		vals[pi] = c.Summaries[0][pi].AvgPowerW
	}
	RenderBars(w, "(wikipedia package power, W)", "W", c.Policies, vals, 40)
	return nil
}

// Fig15 prints the ablation comparison: latency, quality, active ISNs and
// C_RES for exhaustive, Taily, Cottage-withoutML, Cottage-ISN, Cottage.
func Fig15(s *Setup, w io.Writer) error {
	c := s.ablation()
	for ti, kind := range c.Traces {
		fmt.Fprintf(w, "(%s trace)\n", kind)
		fmt.Fprintf(w, "  %-14s %10s %8s %8s %10s\n", "policy", "avg ms", "P@10", "ISNs", "C_RES")
		for pi := range c.Policies {
			sm := c.Summaries[ti][pi]
			fmt.Fprintf(w, "  %-14s %10.2f %8.3f %8.2f %10.0f\n",
				sm.Policy, sm.MeanLatency, sm.MeanPAtK, sm.MeanISNs, sm.MeanCRES)
		}
	}
	// Headline ratios the paper calls out.
	wi := c.Summaries[0]
	var isnLat, cotLat float64
	for pi, name := range c.Policies {
		if name == "cottage-isn" {
			isnLat = wi[pi].MeanLatency
		}
		if name == "cottage" {
			cotLat = wi[pi].MeanLatency
		}
	}
	if cotLat > 0 {
		fmt.Fprintf(w, "cottage-isn / cottage latency ratio (wikipedia): %.2fx (paper: ~1.9x)\n", isnLat/cotLat)
	}
	return nil
}

// Ablations runs the extra design-choice studies DESIGN.md lists: boost
// on/off, downclock on/off, strict top-K, and the quality-prediction
// oracle.
func Ablations(s *Setup, w io.Writer) error {
	noBoost, noDownclock, strict := core.NewCottage(), core.NewCottage(), core.NewCottage()
	noBoost.Boost = false
	noDownclock.Downclock = false
	strict.StrictTopK = true
	policies := []engine.Policy{
		core.NewCottage(), noBoost, noDownclock, strict,
		core.NewCottageOracle(s.Engine, s.WikiEval),
	}
	labels := []string{"cottage (full)", "no boost", "no downclock", "strict top-K", "oracle quality"}
	fmt.Fprintf(w, "%-16s %10s %10s %8s %8s %8s %10s %8s\n",
		"variant", "avg ms", "p95 ms", "P@10", "ISNs", "power W", "C_RES", "boost%")
	def := s.Engine.Cluster.Ladder.Default()
	for i, p := range policies {
		sm := engine.Summarize(s.Engine.Run(p, s.WikiEval))
		// Attribute busy energy above the default frequency to boosting.
		boost, total := 0.0, 0.0
		freqs, mj := s.Engine.Cluster.Meter.Attribution()
		for fi, f := range freqs {
			total += mj[fi]
			if f > def {
				boost += mj[fi]
			}
		}
		share := 0.0
		if total > 0 {
			share = 100 * boost / total
		}
		fmt.Fprintf(w, "%-16s %10.2f %10.2f %8.3f %8.2f %8.2f %10.0f %7.1f%%\n",
			labels[i], sm.MeanLatency, sm.P95Latency, sm.MeanPAtK, sm.MeanISNs,
			sm.AvgPowerW, sm.MeanCRES, share)
	}
	return nil
}

// Fig3 reproduces the motivation example: one query with a wide per-ISN
// latency spread, shown under each policy class — exhaustive search waits
// for the slowest ISN, the aggregation policy cuts stragglers blindly,
// selective search cuts low-quality ISNs but keeps slow ones, and Cottage
// balances both.
func Fig3(s *Setup, w io.Writer) error {
	// Pick the query with the largest per-ISN latency spread among those
	// where several ISNs contribute.
	best, bestSpread := -1, 0.0
	for i, ev := range s.WikiEval {
		contributors := 0
		lo, hi := math.Inf(1), 0.0
		for si := range ev.PerShard {
			if search.Overlap(ev.PerShard[si].Hits, ev.TopKSet) > 0 {
				contributors++
			}
			ms := cluster.ServiceMS(ev.Cycles[si], s.Engine.Cluster.Ladder.Default())
			if ms < lo {
				lo = ms
			}
			if ms > hi {
				hi = ms
			}
		}
		if contributors >= 4 && hi-lo > bestSpread {
			best, bestSpread = i, hi-lo
		}
	}
	if best < 0 {
		return fmt.Errorf("harness: no illustrative query for fig3")
	}
	ev := s.WikiEval[best]
	fmt.Fprintf(w, "query %v — per-ISN service time and top-%d contribution\n",
		ev.Query.Terms, s.Engine.K)
	fmt.Fprintf(w, "%-5s %12s %14s\n", "ISN", "service ms", "contributes")
	for si := range ev.PerShard {
		ms := cluster.ServiceMS(ev.Cycles[si], s.Engine.Cluster.Ladder.Default())
		fmt.Fprintf(w, "%-5d %12.2f %14d\n", si, ms,
			search.Overlap(ev.PerShard[si].Hits, ev.TopKSet))
	}
	// Replay just this query (empty cluster) under each policy class.
	single := []*engine.Evaluated{ev}
	for _, p := range s.Policies() {
		r := s.Engine.Run(freshPolicy(s, p), single)
		o := r.Outcomes[0]
		fmt.Fprintf(w, "%-14s latency %7.2f ms  P@10 %.2f  ISNs %2d  budget %v\n",
			p.Name(), o.LatencyMS, o.PAtK, o.ActiveISNs, fmtBudget(o.BudgetMS))
	}
	return nil
}

func fmtBudget(b float64) string {
	if math.IsInf(b, 1) {
		return "none"
	}
	return fmt.Sprintf("%.2f ms", b)
}
