package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/search"
	"cottage/internal/stats"
)

// untracedShare of a traced run's -seconds goes to the ordinary phases;
// the traced pass, the observer pass and the probes share the rest.
const untracedShare = 0.45

// Shares of the traced part of the run.
const (
	tracedPassShare = 0.6
	obsPassShare    = 0.2
)

// span is one call into a layer's public function, as written to the
// span file.
type span struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Parent is the span that caused this one; 0 for a root.
	Parent int `json:"parent"`
	// Query is the trace index of the query the call belongs to.
	Query   int   `json:"query"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Probe marks a call to a layer that is not on this workload's query
	// path (the predictor and Algorithm 1 under SearchExhaustive). It is
	// timed so every workload reports every layer, and left out of the
	// layer table's sum.
	Probe bool `json:"probe,omitempty"`
}

func (s *span) us() float64 { return float64(s.EndNS-s.StartNS) / 1000 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, query int, probe bool) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Query: query,
		Probe: probe, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = int64(time.Since(t.t0)) }

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerNames are the rows of the layer table, outermost first; the
// residual row follows them.
var layerNames = []string{"rpc", "predict", "core", "search"}

// traceLayers is the traced part of a traced run: a strictly serial
// pass that records a span around every call into a layer, a pass with
// the observer attached, and the probes of layers no query reaches. It
// adds the per-layer metrics to m, writes the span file and the layer
// table, and returns each metric's standard deviation.
func (r *runner) traceLayers(seconds float64, evs []*engine.Evaluated, m measured, outDir string) (map[string]float64, error) {
	sigma := map[string]float64{}
	tr, err := r.tracedPass(time.Duration(seconds * tracedPassShare * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, r.f.w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	table := r.layerMetrics(tr, m, sigma)
	r.obsPass(time.Duration(seconds*obsPassShare*float64(time.Second)), m)
	r.probes(evs, m)
	if err := os.WriteFile(filepath.Join(outDir, r.f.w.name+".layers.md"), []byte(table), 0o644); err != nil {
		return nil, err
	}
	return sigma, nil
}

// tracedPass answers trace queries one at a time for the given duration
// (at most tracedMax of them). Each is first sent through the
// aggregator's public entry point (span "query"), then its lifecycle is
// re-enacted from outside, one public call at a time, so every layer's
// share can be timed without touching the program: per ISN a predict
// round trip and, right after it, the same prediction called directly
// on the same shard (the round trip's child); Algorithm 1 on the
// reports; per selected ISN a search round trip (without the budget as
// its deadline) and the same evaluation called directly; the merge. The
// re-enactment must merge to exactly the answer the aggregator gave.
func (r *runner) tracedPass(d time.Duration) (*tracer, error) {
	f := r.f
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, f.w.tracedMax*(4*f.w.shards+3))}
	ladder := cluster.DefaultLadder()
	onPath := !f.w.exhaustive
	for n := 0; n < f.w.tracedMax && (n < 50 || time.Since(tr.t0) < d); n++ {
		qi := n % len(f.queries)
		terms := f.queries[qi].Terms

		q := tr.start("query", 0, qi, false)
		res, err := f.search(terms)
		tr.end(q)
		r.ck.observe(qi, &res, err)
		if err != nil {
			continue
		}

		var reports []core.ISNReport
		for s, c := range f.clients {
			rtt := tr.start("rpc.predict_rtt", q, qi, !onPath)
			_, _, err := c.PredictLoad(terms)
			tr.end(rtt)
			if err != nil {
				return nil, fmt.Errorf("traced predict on ISN %d: %w", s, err)
			}
			direct := tr.start("predict.predict", rtt, qi, !onPath)
			p := f.eng.Fleet.Predictors[s].Predict(f.eng.Shards[s], terms)
			tr.end(direct)
			if !p.Matched {
				continue
			}
			// The report the aggregator builds from a prediction
			// (aggregator.go); no limiter, so no queue backlog to add.
			reports = append(reports, core.ISNReport{
				ISN: s, QK: p.QK, QK2: p.QK2,
				HasK: p.PZeroK < f.agg.DropZeroProb, HasK2: p.PZeroK2 < f.agg.K2ZeroProb,
				ExpQK:      p.ExpQK,
				LCurrent:   cluster.ServiceMS(p.Cycles, ladder.Default()),
				LBoosted:   cluster.ServiceMS(p.Cycles, ladder.Max()),
				PredCycles: p.Cycles, RawCycles: p.Cycles,
			})
		}
		b := tr.start("core.budget", q, qi, !onPath)
		budget := core.DetermineBudgetDegraded(reports, 0, ladder, core.BudgetOptions{}, f.agg.Degraded)
		tr.end(b)

		var selected []int
		if onPath {
			for _, a := range budget.Selected {
				selected = append(selected, a.ISN)
			}
		} else {
			for s := range f.clients {
				selected = append(selected, s)
			}
		}
		lists := make([][]search.Hit, len(selected))
		for i, s := range selected {
			rtt := tr.start("rpc.search_rtt", q, qi, false)
			// No deadline: the ISN does the same work either way, and a
			// stall here must not fail the pass the way a missed budget
			// drops an ISN from a real query.
			got, err := f.clients[s].Search(terms, topK, 0)
			tr.end(rtt)
			if err != nil {
				return nil, fmt.Errorf("traced search on ISN %d: %w", s, err)
			}
			direct := tr.start("search.eval", rtt, qi, false)
			search.Eval(f.eng.Strategy, f.eng.Shards[s], terms, topK)
			tr.end(direct)
			lists[i] = got.Hits
			r.docsScored += got.Stats.DocsScored
			r.postings += got.Stats.PostingsTraversed
		}
		mg := tr.start("search.merge", q, qi, false)
		merged := search.Merge(topK, lists...)
		tr.end(mg)
		if len(res.Failed) == 0 && !sameHits(merged, res.Hits) {
			r.ck.miss(qi, "the layer-by-layer re-enactment merges to a different answer than the aggregator gave")
		}
		r.tracedQueries++
	}
	return tr, nil
}

// layerMetrics turns the spans into the per-layer metrics and the layer
// table. A span's self time is its duration minus its children's; a
// layer's busy time per query is the self time of its on-path spans.
func (r *runner) layerMetrics(tr *tracer, m measured, sigma map[string]float64) string {
	childUS := make([]float64, len(tr.spans)+1)
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Parent != 0 && tr.spans[s.Parent-1].Name != "query" {
			childUS[s.Parent] += s.us()
		}
	}
	perCall := map[string][]float64{}    // span name → duration of every call
	busy := map[string]map[int]float64{} // layer → query → self time on the query path
	for _, l := range layerNames {
		busy[l] = map[int]float64{}
	}
	queryUS := map[int]float64{}
	var order []int // queries in the order traced
	for i := range tr.spans {
		s := &tr.spans[i]
		perCall[s.Name] = append(perCall[s.Name], s.us())
		if s.Name == "query" {
			queryUS[s.ID] = s.us()
			order = append(order, s.ID)
			continue
		}
		if s.Probe {
			continue
		}
		root := s.Parent
		if tr.spans[root-1].Name != "query" {
			root = tr.spans[root-1].Parent
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		busy[layer][root] += s.us() - childUS[s.ID]
	}

	call := func(metric, spanName string) {
		m[metric] = stats.Mean(perCall[spanName])
		sigma[metric] = stats.StdDev(perCall[spanName])
	}
	call("rpc.predict_rtt_us", "rpc.predict_rtt")
	call("rpc.search_rtt_us", "rpc.search_rtt")
	call("predict.predict_us", "predict.predict")
	call("core.budget_us", "core.budget")
	call("search.eval_us", "search.eval")
	call("search.merge_us", "search.merge")
	m["rpc.predict_overhead_us"] = m["rpc.predict_rtt_us"] - m["predict.predict_us"]
	m["rpc.search_overhead_us"] = m["rpc.search_rtt_us"] - m["search.eval_us"]
	n := float64(r.tracedQueries)
	m["search.docs_scored_per_query"] = float64(r.docsScored) / n
	m["search.postings_per_query"] = float64(r.postings) / n

	// The residual and the tracing overhead are taken window by window
	// against the serial phase of this same run, so both come with a σ.
	serialCPU := r.windows["cpu_us_per_query"]
	chunks := splitChunks(order, numWindows)
	var other, overhead []float64
	layerChunk := map[string][]float64{}
	for k, ids := range chunks {
		sum := 0.0
		for _, l := range layerNames {
			v := 0.0
			for _, id := range ids {
				v += busy[l][id]
			}
			v /= float64(len(ids))
			layerChunk[l] = append(layerChunk[l], v)
			sum += v
		}
		other = append(other, serialCPU[k]-sum)
		q := 0.0
		for _, id := range ids {
			q += queryUS[id]
		}
		q /= float64(len(ids))
		overhead = append(overhead, (q-r.serialMeanUS[k])/r.serialMeanUS[k])
	}
	m["rpc.agg_other_us"], sigma["rpc.agg_other_us"] = stats.Mean(other), stats.StdDev(other)
	m["loadgen.trace_overhead_frac"], sigma["loadgen.trace_overhead_frac"] = stats.Mean(overhead), stats.StdDev(overhead)

	cpu := stats.Mean(serialCPU)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: where a query's CPU time goes\n\n", r.f.w.name)
	fmt.Fprintf(&b, "%d queries traced one at a time; `cpu_us_per_query` = %.1f µs (mean of the same run's serial windows).\n", r.tracedQueries, cpu)
	fmt.Fprintf(&b, "A layer's time is the self time of its spans on the query path, summed per query;\n")
	fmt.Fprintf(&b, "σ is over the %d windows. `rpc.agg_other_us` is the residual, so the rows sum to the total.\n\n", numWindows)
	fmt.Fprintf(&b, "| layer | µs/query | %% of cpu_us_per_query | σ |\n|---|---:|---:|---:|\n")
	for _, l := range layerNames {
		v := stats.Mean(layerChunk[l])
		fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.1f |\n", l, v, 100*v/cpu, stats.StdDev(layerChunk[l]))
	}
	fmt.Fprintf(&b, "| rpc.agg_other_us (residual) | %.1f | %.1f | %.1f |\n", stats.Mean(other), 100*stats.Mean(other)/cpu, stats.StdDev(other))
	fmt.Fprintf(&b, "| **cpu_us_per_query** | %.1f | 100.0 | %.1f |\n\n", cpu, stats.StdDev(serialCPU))
	fmt.Fprintf(&b, "| call | calls/query | µs/call | σ |\n|---|---:|---:|---:|\n")
	for _, name := range sortedKeys(perCall) {
		fmt.Fprintf(&b, "| %s | %.2f | %.1f | %.1f |\n", name, float64(len(perCall[name]))/n, stats.Mean(perCall[name]), stats.StdDev(perCall[name]))
	}
	return b.String()
}

// splitChunks cuts xs into k nearly equal consecutive parts.
func splitChunks(xs []int, k int) [][]int {
	out := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(xs)/k, (i+1)*len(xs)/k
		if hi > lo {
			out = append(out, xs[lo:hi])
		}
	}
	return out
}
