// Benchmarks, one per table/figure of the paper's evaluation (see
// DESIGN.md's experiment index), plus micro-benchmarks for the substrate
// layers. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigNN times the work behind that figure; the figure's
// actual rows/series are produced by cmd/cottage-bench.
package cottage

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"testing"
	"time"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/harness"
	"cottage/internal/index"
	"cottage/internal/nn"
	"cottage/internal/par"
	"cottage/internal/predict"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
	"cottage/internal/xrand"
)

var (
	benchOnce  sync.Once
	benchSetup *harness.Setup
	benchErr   error
)

// setupBench builds a reduced harness setup shared by every benchmark.
func setupBench(b *testing.B) *harness.Setup {
	b.Helper()
	benchOnce.Do(func() {
		cfg := harness.QuickSetupConfig()
		cfg.CorpusCfg.NumDocs = 6000
		cfg.CorpusCfg.VocabSize = 6000
		cfg.TrainQueries = 600
		cfg.EvalQueries = 600
		cfg.PredictCfg.QualitySteps = 250
		cfg.PredictCfg.LatencySteps = 120
		benchSetup, benchErr = harness.Build(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// replay times one policy replay over the evaluated Wikipedia trace.
func replay(b *testing.B, p engine.Policy) {
	s := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Engine.Run(p, s.WikiEval)
	}
}

// BenchmarkTable1Features times Table I feature extraction via the quality
// predictor path (features + inference).
func BenchmarkTable1Features(b *testing.B) {
	s := setupBench(b)
	p := s.Engine.Fleet.Predictors[0]
	sh := s.Engine.Shards[0]
	terms := s.WikiQueries[0].Terms
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(sh, terms)
	}
}

// BenchmarkFig2LatencyQualityVariation times the exhaustive evaluation
// pass that produces Fig. 2's histograms.
func BenchmarkFig2LatencyQualityVariation(b *testing.B) {
	replay(b, baselines.Exhaustive{})
}

// BenchmarkFig4FrequencySweep times a DVFS sweep of a query across the
// frequency ladder.
func BenchmarkFig4FrequencySweep(b *testing.B) {
	s := setupBench(b)
	cycles := s.WikiEval[0].Cycles[0]
	ladder := s.Engine.Cluster.Ladder
	b.ResetTimer()
	acc := 0.0
	for i := 0; i < b.N; i++ {
		for _, f := range ladder.Levels {
			acc += cycles / (f * 1e6)
		}
	}
	_ = acc
}

// BenchmarkFig6GammaFit times fitting and scoring the Gamma model against
// a real score distribution.
func BenchmarkFig6GammaFit(b *testing.B) {
	s := setupBench(b)
	var buf discard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := harness.Fig6(s, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7QualityPredictor times quality-model inference, the
// quantity on Fig. 7b's right axis.
func BenchmarkFig7QualityPredictor(b *testing.B) {
	s := setupBench(b)
	p := s.Engine.Fleet.Predictors[0]
	sh := s.Engine.Shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(sh, s.WikiQueries[i%len(s.WikiQueries)].Terms)
	}
}

// BenchmarkFig7PaperNet times inference at the paper's exact 5x128
// architecture.
func BenchmarkFig7PaperNet(b *testing.B) {
	net := nn.New(nn.PaperConfig(15, 11, 1))
	p := net.NewPredictor(1)
	x := make([]float64, 15)
	for i := range x {
		x[i] = float64(i) * 1.7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Classify(x)
	}
}

// BenchmarkFig8LatencyPredictor times training the latency model for one
// ISN at the paper's 60-iteration budget.
func BenchmarkFig8LatencyPredictor(b *testing.B) {
	s := setupBench(b)
	ds := s.TrainData
	cfg := predict.DefaultConfig(10)
	cfg.QualitySteps = 10
	cfg.LatencySteps = 60
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predict.Train(&predict.Dataset{PerISN: ds.PerISN[:1]}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9BudgetDetermination times Algorithm 1 itself.
func BenchmarkFig9BudgetDetermination(b *testing.B) {
	s := setupBench(b)
	cot := core.NewCottage()
	q := s.WikiQueries[0]
	reports := cot.Reports(s.Engine, q, 0)
	ladder := s.Engine.Cluster.Ladder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.DetermineBudget(reports, ladder, core.BudgetOptions{Downclock: true})
	}
}

// BenchmarkFig10OverallLatency times a full Cottage trace replay — the
// run behind Fig. 10's latency series.
func BenchmarkFig10OverallLatency(b *testing.B) {
	replay(b, core.NewCottage())
}

// BenchmarkFig11Quality times the Taily replay used in the quality
// comparison.
func BenchmarkFig11Quality(b *testing.B) {
	replay(b, baselines.NewTaily())
}

// BenchmarkFig12Scatter times computing the per-query latency/quality
// points for the scatter figure.
func BenchmarkFig12Scatter(b *testing.B) {
	s := setupBench(b)
	res := s.Engine.Run(core.NewCottage(), s.WikiEval)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		good := 0
		for _, o := range res.Outcomes {
			if o.PAtK >= 0.9 && o.LatencyMS < 5 {
				good++
			}
		}
		_ = good
	}
}

// BenchmarkFig13RankS times the Rank-S replay (CSI lookups dominate).
func BenchmarkFig13RankS(b *testing.B) {
	s := setupBench(b)
	replay(b, s.RankS)
}

// BenchmarkFig14Power times the aggregation-policy replay with power
// accounting.
func BenchmarkFig14Power(b *testing.B) {
	replay(b, baselines.NewAggregation())
}

// BenchmarkFig15Ablation times the Cottage-withoutML replay (Gamma
// estimation on every query).
func BenchmarkFig15Ablation(b *testing.B) {
	replay(b, core.NewCottageNoML())
}

// BenchmarkAblationBoost compares the boost-disabled variant (the
// DESIGN.md ablation on frequency boosting).
func BenchmarkAblationBoost(b *testing.B) {
	p := core.NewCottage()
	p.Boost = false
	replay(b, p)
}

// BenchmarkAblationKOver2 compares the strict top-K variant (no K/2
// relaxation).
func BenchmarkAblationKOver2(b *testing.B) {
	p := core.NewCottage()
	p.StrictTopK = true
	replay(b, p)
}

// BenchmarkPruningMaxScoreVsExhaustive quantifies the dynamic-pruning
// speedup at one quick-scale ISN (DESIGN.md ablation 1): the one pruning
// evaluator against the oracle it must match hit for hit.
func BenchmarkPruningMaxScoreVsExhaustive(b *testing.B) {
	s := setupBench(b)
	sh := s.Engine.Shards[0]
	q := s.WikiQueries[1].Terms
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = search.Exhaustive(sh, q, 10)
		}
	})
	b.Run("maxscore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = search.MaxScore(sh, q, 10)
		}
	})
}

var (
	largeShardOnce sync.Once
	largeShard     *index.Shard
)

func buildLargeShard() *index.Shard {
	largeShardOnce.Do(func() {
		bld := index.NewBuilder(0, index.DefaultBM25(), 10)
		rng := xrand.New(7)
		const vocabSize = 4000
		vocab := make([]string, vocabSize)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("w%03d", i)
		}
		zipf := xrand.NewZipf(rng, 1.07, vocabSize)
		for d := 0; d < 50000; d++ {
			topic := d / 1000
			n := 40 + rng.Intn(160)
			terms := make(map[string]int)
			for i := 0; i < n; i++ {
				terms[vocab[zipf.Draw()]]++
			}
			// Each topic owns three terms that run hot across its range.
			for j := 0; j < 3; j++ {
				terms[vocab[(topic*37+j*13)%vocabSize]] += 6 + rng.Intn(10)
			}
			bld.Add(int64(d), terms, n)
		}
		largeShard = bld.Finalize()
	})
	return largeShard
}

// BenchmarkPruningLargeShard times MaxScore on a single ISN at realistic
// list lengths (50k docs, Zipfian vocabulary, so frequent terms span
// hundreds of 64-posting blocks) with topically clustered term
// frequencies — each topic's terms carry high TFs inside the topic's
// contiguous 1000-document range and incidental TF-1 occurrences
// elsewhere, the structure document-reordered real indexes have. The
// quick-scale harness shards (a few hundred docs per ISN) are too small
// for skipping to show.
func BenchmarkPruningLargeShard(b *testing.B) {
	sh := buildLargeShard()
	// A stopword-frequency term plus a frequent term whose high-TF docs
	// cluster in one topic range: the threshold starts at the K-th score
	// of the clustered term, past the stopword's bound, so one list is
	// essential from the first posting and its TF-1 blocks are stepped
	// over on Block.Max without being decoded.
	q := []string{"w000", "w013"}
	b.Run("maxscore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = search.MaxScore(sh, q, 10)
		}
	})
}

// BenchmarkEvaluateQuery times the policy-independent evaluation of one
// query across all shards.
func BenchmarkEvaluateQuery(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Engine.Evaluate(s.WikiQueries[i%len(s.WikiQueries)])
	}
}

// fleetShape is one of the repository benchmark's fleet shapes
// (bench/loadgen/workload.go), rebuilt here the way bench/loadgen/fleet.go
// builds it: same corpus generator and size, same topical allocation,
// same trace kind, seed 202, and for the heavy shape the
// longer-than-median half of a double-length trace.
type fleetShape struct {
	name               string
	docs, shards, home int
	kind               trace.Kind
	qps                float64
	heavy              bool

	once    sync.Once
	built   []*index.Shard
	buckets [3][][]string // query terms by term count: 1, 2, 3+
}

var fleetShapes = []*fleetShape{
	{name: "wiki16", docs: 48000, shards: 16, home: 3, kind: trace.Wikipedia, qps: 45},
	{name: "heavy4", docs: 160000, shards: 4, home: 1, kind: trace.Lucene, qps: 5, heavy: true},
}

// fleetShapeSample caps how many queries of one term-count bucket a
// benchmark op evaluates. They are taken at an even stride through the
// bucket, so the sample — and therefore ns/op — is the same whatever
// b.N the framework settles on.
const fleetShapeSample = 128

func (f *fleetShape) build() {
	const evalQueries = 4000
	cc := textgen.DefaultConfig()
	cc.NumDocs = f.docs
	corpus := textgen.Generate(cc)
	alloc := corpus.AllocateTopical(f.shards, f.home, 0.15, 5)
	f.built = make([]*index.Shard, len(alloc))
	par.For(len(alloc), func(si int) {
		bld := index.NewBuilder(si, index.DefaultBM25(), 10)
		for _, id := range alloc[si] {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			bld.Add(int64(id), terms, d.Length)
		}
		f.built[si] = bld.Finalize()
	})
	n := evalQueries
	if f.heavy {
		n *= 2
	}
	qs := trace.Generate(corpus, trace.Config{Kind: f.kind, Seed: 202, NumQueries: n, QPS: f.qps})
	if f.heavy {
		lens := make([]int, len(qs))
		for i, q := range qs {
			for _, sh := range f.built {
				for _, t := range q.Terms {
					if ti, ok := sh.Lookup(t); ok {
						lens[i] += ti.Len()
					}
				}
			}
		}
		sorted := append([]int(nil), lens...)
		sort.Ints(sorted)
		median := sorted[len(sorted)/2]
		kept := qs[:0]
		for i, q := range qs {
			if lens[i] >= median && len(kept) < evalQueries {
				kept = append(kept, q)
			}
		}
		qs = kept
	}
	for _, q := range qs {
		b := len(q.Terms) - 1
		if b > 2 {
			b = 2
		}
		f.buckets[b] = append(f.buckets[b], q.Terms)
	}
	for i, bucket := range f.buckets {
		if len(bucket) <= fleetShapeSample {
			continue
		}
		sample := make([][]string, fleetShapeSample)
		for j := range sample {
			sample[j] = bucket[j*len(bucket)/fleetShapeSample]
		}
		f.buckets[i] = sample
	}
}

// BenchmarkEvalFleetShape times the ISN evaluator (MaxScore, the engine's
// and the benchmark servers' default strategy) on traffic shaped like the
// repository benchmark's: many small topical shards under Wikipedia-like
// queries, and a few big shards under long-list Lucene-like queries,
// split by query term count because the evaluator's cost per posting
// depends on it (a one-term query walks its whole list; a multi-term one
// mostly probes). One op evaluates the bucket's sample on every shard;
// ns/query and ns/posting (per PostingsTraversed) are reported beside it,
// and so are postings/query and blocks-skipped/query: those two are counts,
// the same on every run, so a change in the work done shows without a
// timer.
func BenchmarkEvalFleetShape(b *testing.B) {
	for _, f := range fleetShapes {
		for bi, name := range []string{"terms1", "terms2", "terms3plus"} {
			b.Run(f.name+"/"+name, func(b *testing.B) {
				f.once.Do(f.build)
				queries := f.buckets[bi]
				if len(queries) == 0 {
					b.Skip("no query of this term count in the trace")
				}
				postings, skipped := 0, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						for _, sh := range f.built {
							r := search.MaxScore(sh, q, 10)
							postings += r.Stats.PostingsTraversed
							skipped += r.Stats.BlocksSkipped
						}
					}
				}
				ns := float64(b.Elapsed().Nanoseconds())
				nq := float64(b.N * len(queries))
				b.ReportMetric(ns/nq, "ns/query")
				b.ReportMetric(ns/float64(postings), "ns/posting")
				b.ReportMetric(float64(postings)/nq, "postings/query")
				b.ReportMetric(float64(skipped)/nq, "blocks-skipped/query")
			})
		}
	}
}

// BenchmarkBuildFleetShape times building the repository benchmark's
// fleets from nothing, as bench/loadgen's setup builds them, one layer
// at a time: corpus synthesis (generate), every shard's Builder.Add calls
// (add) and Finalize calls (finalize), each under par.For over shards,
// then the ground-truth harvest of the 900-query training trace
// (harvest) and the predictors' training at 400/160 steps (train). Each
// layer is reported in ms per build, beside the peak of the heap's object
// bytes sampled every 2 ms (heap-peak-MB). The benchmark's setup_s
// adds the evaluation trace, the listeners and the warm-up to these.
func BenchmarkBuildFleetShape(b *testing.B) {
	for _, f := range fleetShapes {
		b.Run(f.name, func(b *testing.B) {
			const layers = 5
			var ms [layers]float64
			stop, peak := sampleHeapPeak()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				lap := func(layer int) {
					now := time.Now()
					ms[layer] += float64(now.Sub(start).Microseconds()) / 1000
					start = now
				}
				cc := textgen.DefaultConfig()
				cc.NumDocs = f.docs
				corpus := textgen.Generate(cc)
				lap(0)
				alloc := corpus.AllocateTopical(f.shards, f.home, 0.15, 5)
				builders := make([]*index.Builder, len(alloc))
				par.For(len(alloc), func(si int) {
					builders[si] = index.NewBuilder(si, index.DefaultBM25(), 10)
					for _, id := range alloc[si] {
						d := &corpus.Docs[id]
						terms := make(map[string]int, len(d.Terms))
						for tid, tf := range d.Terms {
							terms[corpus.Vocab[tid]] = tf
						}
						builders[si].Add(int64(id), terms, d.Length)
					}
				})
				lap(1)
				shards := make([]*index.Shard, len(builders))
				par.For(len(builders), func(si int) { shards[si] = builders[si].Finalize() })
				lap(2)
				train := trace.Generate(corpus, trace.Config{Kind: f.kind, Seed: 101, NumQueries: 900, QPS: f.qps})
				start = time.Now()
				ecfg := engine.DefaultConfig()
				ds := predict.Harvest(shards, train, 10, ecfg.Strategy, ecfg.Cluster.Cost)
				lap(3)
				pcfg := predict.DefaultConfig(10)
				pcfg.QualitySteps, pcfg.LatencySteps = 400, 160
				if _, err := predict.Train(ds, pcfg); err != nil {
					b.Fatal(err)
				}
				lap(4)
			}
			stop()
			for layer, name := range [layers]string{"generate", "add", "finalize", "harvest", "train"} {
				b.ReportMetric(ms[layer]/float64(b.N), name+"-ms")
			}
			b.ReportMetric(float64(*peak)/(1<<20), "heap-peak-MB")
		})
	}
}

// sampleHeapPeak starts recording the peak of the heap's object bytes
// (live and not yet swept), read every 2 ms. stop ends the sampling and
// leaves the peak in *peak.
func sampleHeapPeak() (stop func(), peak *uint64) {
	peak = new(uint64)
	done, finished := make(chan struct{}), make(chan struct{})
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		*peak = max(*peak, sample[0].Value.Uint64())
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		read()
	}, peak
}

// BenchmarkOracle times the oracle-quality replay used in the predictor
// error analysis.
func BenchmarkOracle(b *testing.B) {
	s := setupBench(b)
	replay(b, core.NewCottageOracle(s.Engine, s.WikiEval))
}

// discard is a minimal io.Writer that drops output (io.Discard with a
// concrete type so the compiler can devirtualize in benchmarks).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

var _ io.Writer = discard{}
