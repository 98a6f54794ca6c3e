package baselines

import (
	"math"
	"testing"

	"cottage/internal/engine"
	"cottage/internal/index"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

type fixture struct {
	corpus *textgen.Corpus
	alloc  [][]int
	eng    *engine.Engine
	qs     []trace.Query
}

var cached *fixture

func getFixture(tb testing.TB) *fixture {
	tb.Helper()
	if cached != nil {
		return cached
	}
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 4000
	ccfg.VocabSize = 5000
	ccfg.NumTopics = 16
	ccfg.TopicTermCount = 150
	corpus := textgen.Generate(ccfg)
	ecfg := engine.DefaultConfig()
	ecfg.NumShards = 8
	alloc := corpus.AllocateTopical(ecfg.NumShards, 2, 0.15, 5)
	shards := make([]*index.Shard, len(alloc))
	for si, ids := range alloc {
		b := index.NewBuilder(si, ecfg.BM25, ecfg.K)
		for _, id := range ids {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
		}
		shards[si] = b.Finalize()
	}
	eng := engine.New(shards, ecfg)
	qs := trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 7, NumQueries: 300, QPS: 30})
	cached = &fixture{corpus: corpus, alloc: alloc, eng: eng, qs: qs}
	return cached
}

func TestExhaustiveDecision(t *testing.T) {
	f := getFixture(t)
	d := Exhaustive{}.Decide(f.eng, f.qs[0], 0)
	if len(d.Participate) != len(f.eng.Shards) {
		t.Fatal("participation size wrong")
	}
	for i, p := range d.Participate {
		if !p {
			t.Fatalf("exhaustive must select ISN %d", i)
		}
	}
	if !math.IsInf(d.BudgetMS, 1) {
		t.Error("exhaustive must not budget")
	}
	if (Exhaustive{}).Name() != "exhaustive" {
		t.Error("name wrong")
	}
}

func TestAggregationEpochs(t *testing.T) {
	a := NewAggregation()
	if !math.IsInf(a.budget, 1) {
		t.Fatal("first epoch must be unbudgeted")
	}
	// Feed one epoch of latencies 1..100; the 60th percentile is ~60.
	for i := 1; i <= a.EpochQueries; i++ {
		a.Observe(float64(i))
	}
	if b := a.budget; b < 55 || b > 65 {
		t.Fatalf("epoch budget = %v, want ~60", b)
	}
	// Next epoch's latencies are smaller; after it closes the budget
	// shrinks.
	for i := 0; i < a.EpochQueries; i++ {
		a.Observe(10)
	}
	if b := a.budget; b != 10 {
		t.Fatalf("adapted budget = %v, want 10", b)
	}
	f := getFixture(t)
	d := a.Decide(f.eng, f.qs[0], 0)
	if d.BudgetMS != 10 {
		t.Fatalf("decision budget = %v", d.BudgetMS)
	}
	for _, p := range d.Participate {
		if !p {
			t.Fatal("aggregation must select all ISNs")
		}
	}
}

func TestRankSConstruction(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultRankSConfig()
	r := NewRankS(f.corpus, f.alloc, index.DefaultBM25(), cfg)
	if r.CSI.NumDocs == 0 {
		t.Fatal("empty CSI")
	}
	// Sample size should be near rate * corpus.
	want := cfg.SampleRate * float64(len(f.corpus.Docs))
	got := float64(r.CSI.NumDocs)
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("CSI holds %v docs, want ~%v", got, want)
	}
	// Every sampled doc's home shard is recorded and valid.
	if len(r.HomeShard) != r.CSI.NumDocs {
		t.Error("home map size mismatch")
	}
	for doc, s := range r.HomeShard {
		if s < 0 || s >= len(f.alloc) {
			t.Fatalf("doc %d mapped to invalid shard %d", doc, s)
		}
	}
}

func TestRankSVotesFollowSample(t *testing.T) {
	f := getFixture(t)
	r := NewRankS(f.corpus, f.alloc, index.DefaultBM25(), DefaultRankSConfig())
	anyVotes := false
	for _, q := range f.qs[:50] {
		votes := r.Votes(q.Terms)
		if len(votes) != len(f.alloc) {
			t.Fatal("vote vector size wrong")
		}
		for _, v := range votes {
			if v < 0 {
				t.Fatal("negative vote")
			}
			if v > 0 {
				anyVotes = true
			}
		}
	}
	if !anyVotes {
		t.Fatal("no query produced any votes")
	}
}

func TestRankSDecide(t *testing.T) {
	f := getFixture(t)
	r := NewRankS(f.corpus, f.alloc, index.DefaultBM25(), DefaultRankSConfig())
	selectedAny := false
	for _, q := range f.qs[:50] {
		d := r.Decide(f.eng, q, 0)
		n := 0
		for _, p := range d.Participate {
			if p {
				n++
			}
		}
		if n > 0 {
			selectedAny = true
		}
		if !math.IsInf(d.BudgetMS, 1) {
			t.Fatal("rank-s does not budget")
		}
	}
	if !selectedAny {
		t.Fatal("rank-s never selected a shard")
	}
}

func TestRankSPanicsOnBadRate(t *testing.T) {
	f := getFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRankS(f.corpus, f.alloc, index.DefaultBM25(), RankSConfig{SampleRate: 0})
}

func TestTailyDecide(t *testing.T) {
	f := getFixture(t)
	ty := NewTaily()
	counts := 0
	for _, q := range f.qs[:50] {
		d := ty.Decide(f.eng, q, 0)
		for _, p := range d.Participate {
			if p {
				counts++
			}
		}
		if !math.IsInf(d.BudgetMS, 1) {
			t.Fatal("taily does not budget")
		}
	}
	if counts == 0 {
		t.Fatal("taily never selected a shard")
	}
	// Average selection must be a strict subset of the cluster.
	if avg := float64(counts) / 50; avg >= float64(len(f.eng.Shards)) {
		t.Errorf("taily selects everything (avg %v)", avg)
	}
}

func TestTailyThresholdMonotone(t *testing.T) {
	f := getFixture(t)
	count := func(tau float64) int {
		ty := &Taily{Tau: tau}
		total := 0
		for _, q := range f.qs[:40] {
			d := ty.Decide(f.eng, q, 0)
			for _, p := range d.Participate {
				if p {
					total++
				}
			}
		}
		return total
	}
	low, high := count(0.05), count(1.0)
	if high > low {
		t.Errorf("higher threshold selected more shards: %d vs %d", high, low)
	}
}

func TestPoliciesRunEndToEnd(t *testing.T) {
	f := getFixture(t)
	evs := f.eng.EvaluateAll(f.qs)
	r := NewRankS(f.corpus, f.alloc, index.DefaultBM25(), DefaultRankSConfig())
	for _, p := range []engine.Policy{Exhaustive{}, NewAggregation(), r, NewTaily()} {
		res := f.eng.Run(p, evs)
		sm := engine.Summarize(res)
		if sm.Queries != len(f.qs) {
			t.Fatalf("%s ran %d queries", p.Name(), sm.Queries)
		}
		if sm.MeanLatency <= 0 {
			t.Fatalf("%s produced non-positive latency", p.Name())
		}
		if p.Name() == "exhaustive" && sm.MeanPAtK != 1 {
			t.Fatalf("exhaustive quality %v", sm.MeanPAtK)
		}
	}
}

func TestFixedSLARequiresFleet(t *testing.T) {
	f := getFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("FixedSLA without a fleet should panic")
		}
	}()
	(&FixedSLA{BudgetMS: 20}).Decide(f.eng, f.qs[0], 0)
}
