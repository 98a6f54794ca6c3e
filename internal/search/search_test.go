package search

import (
	"math"
	"sort"
	"testing"

	"cottage/internal/index"
	"cottage/internal/xrand"
)

// buildShard creates a moderately sized shard with Zipfian term usage so
// pruning has something to skip.
func buildShard(tb testing.TB, seed uint64, docs int) *index.Shard {
	tb.Helper()
	b := index.NewBuilder(0, index.DefaultBM25(), 10)
	rng := xrand.New(seed)
	vocabSize := 300
	vocab := make([]string, vocabSize)
	for i := range vocab {
		vocab[i] = term(i)
	}
	zipf := xrand.NewZipf(rng, 1.1, vocabSize)
	for d := 0; d < docs; d++ {
		n := 20 + rng.Intn(120)
		terms := make(map[string]int)
		for i := 0; i < n; i++ {
			terms[vocab[zipf.Draw()]]++
		}
		b.Add(int64(d), terms, n)
	}
	return b.Finalize()
}

func term(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	s := ""
	for {
		s = string(letters[i%26]) + s
		i /= 26
		if i == 0 {
			return "w" + s
		}
	}
}

// scoreMultiset extracts the sorted score list of a result. Exact ties can
// legitimately resolve to different documents across strategies, so
// equivalence is checked on scores.
func scoreMultiset(r Result) []float64 {
	out := make([]float64, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.Score
	}
	sort.Float64s(out)
	return out
}

func sameScores(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func queries() [][]string {
	return [][]string{
		{"wa"},
		{"wb"},
		{"wz"},
		{"wa", "wb"},
		{"wa", "wkf"},
		{"wc", "wd", "we"},
		{"wa", "wb", "wc", "wd"},
		{"wdz", "wcv"},
		{"wa", "wa"},            // duplicate term
		{"missingterm"},         // absent
		{"wa", "missing", "wb"}, // partial match
	}
}

func TestStrategiesAgreeOnTopK(t *testing.T) {
	s := buildShard(t, 11, 3000)
	for _, q := range queries() {
		for _, k := range []int{1, 5, 10, 50} {
			ex := Exhaustive(s, q, k)
			ms := MaxScore(s, q, k)
			if !sameScores(scoreMultiset(ex), scoreMultiset(ms), 1e-9) {
				t.Errorf("maxscore differs from exhaustive for %v k=%d:\n ex=%v\n ms=%v",
					q, k, scoreMultiset(ex), scoreMultiset(ms))
			}
		}
	}
}

func TestStrategiesAgreeProperty(t *testing.T) {
	s := buildShard(t, 17, 2000)
	rng := xrand.New(23)
	for trial := 0; trial < 150; trial++ {
		nTerms := 1 + rng.Intn(4)
		q := make([]string, nTerms)
		for i := range q {
			q[i] = term(rng.Intn(300))
		}
		k := 1 + rng.Intn(20)
		ex := Exhaustive(s, q, k)
		ms := MaxScore(s, q, k)
		if !sameScores(scoreMultiset(ex), scoreMultiset(ms), 1e-9) {
			t.Fatalf("trial %d: maxscore mismatch for %v k=%d", trial, q, k)
		}
	}
}

func TestHitsSortedDescending(t *testing.T) {
	s := buildShard(t, 5, 1500)
	for _, strat := range []Strategy{StrategyExhaustive, StrategyMaxScore} {
		r := Eval(strat, s, []string{"wa", "wb", "wc"}, 20)
		for i := 1; i < len(r.Hits); i++ {
			if r.Hits[i].Score > r.Hits[i-1].Score {
				t.Fatalf("%v: hits not sorted", strat)
			}
			if r.Hits[i].Score == r.Hits[i-1].Score && r.Hits[i].Local < r.Hits[i-1].Local {
				t.Fatalf("%v: tie-break violated", strat)
			}
		}
	}
}

func TestScoresMatchRecomputation(t *testing.T) {
	s := buildShard(t, 7, 1000)
	q := []string{"wa", "wb", "wf"}
	r := MaxScore(s, q, 10)
	for _, h := range r.Hits {
		want := 0.0
		for _, text := range q {
			ti, ok := s.Lookup(text)
			if !ok {
				continue
			}
			ps := ti.AllPostings()
			i := index.Seek(ps, h.Local)
			if i < len(ps) && ps[i].Doc == h.Local {
				want += s.TermScore(ti, ps[i])
			}
		}
		if math.Abs(want-h.Score) > 1e-9 {
			t.Errorf("doc %d score %v, recomputed %v", h.Local, h.Score, want)
		}
	}
}

func TestPruningDoesLessWork(t *testing.T) {
	s := buildShard(t, 31, 8000)
	// A query mixing one very common and one rare term is where pruning
	// pays off: the common list is mostly skipped.
	q := []string{"wa", "wdp"}
	ex := Exhaustive(s, q, 10)
	ms := MaxScore(s, q, 10)
	if ms.Stats.PostingsTraversed >= ex.Stats.PostingsTraversed {
		t.Errorf("maxscore traversed %d >= exhaustive %d",
			ms.Stats.PostingsTraversed, ex.Stats.PostingsTraversed)
	}
	if ms.Stats.DocsScored >= ex.Stats.DocsScored {
		t.Errorf("maxscore scored %d >= exhaustive %d docs",
			ms.Stats.DocsScored, ex.Stats.DocsScored)
	}
}

func TestEmptyAndEdgeCases(t *testing.T) {
	s := buildShard(t, 3, 500)
	if r := Exhaustive(s, nil, 10); len(r.Hits) != 0 {
		t.Error("nil query should return nothing")
	}
	if r := MaxScore(s, []string{"zzzznope"}, 10); len(r.Hits) != 0 || r.Stats.TermsMatched != 0 {
		t.Error("absent term should return nothing")
	}
	if r := MaxScore(s, []string{"wa"}, 0); len(r.Hits) != 0 {
		t.Error("k=0 should return nothing")
	}
	// K greater than matching docs: return all matches.
	ti, _ := s.Lookup("wdz")
	if ti != nil {
		r := Exhaustive(s, []string{"wdz"}, s.NumDocs*2)
		if len(r.Hits) != ti.Stats.PostingLen {
			t.Errorf("k>matches: got %d hits, want %d", len(r.Hits), ti.Stats.PostingLen)
		}
	}
}

func TestDuplicateTermsCollapse(t *testing.T) {
	s := buildShard(t, 3, 500)
	a := Exhaustive(s, []string{"wa"}, 10)
	b := Exhaustive(s, []string{"wa", "wa", "wa"}, 10)
	if !sameScores(scoreMultiset(a), scoreMultiset(b), 0) {
		t.Error("duplicate terms should not change scores")
	}
}

func TestExecStatsSane(t *testing.T) {
	s := buildShard(t, 3, 2000)
	r := Exhaustive(s, []string{"wa", "wb"}, 10)
	if r.Stats.DocsScored <= 0 || r.Stats.PostingsTraversed < r.Stats.DocsScored {
		t.Errorf("implausible stats: %+v", r.Stats)
	}
	ta, _ := s.Lookup("wa")
	tb, _ := s.Lookup("wb")
	if r.Stats.PostingsTraversed != ta.Stats.PostingLen+tb.Stats.PostingLen {
		t.Errorf("exhaustive must traverse every posting: got %d, want %d",
			r.Stats.PostingsTraversed, ta.Stats.PostingLen+tb.Stats.PostingLen)
	}
	if r.Stats.TermsMatched != 2 {
		t.Errorf("TermsMatched = %d", r.Stats.TermsMatched)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyExhaustive.String() != "exhaustive" ||
		StrategyMaxScore.String() != "maxscore" ||
		Strategy(99).String() != "unknown" {
		t.Error("Strategy.String wrong")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, st := range []Strategy{StrategyExhaustive, StrategyMaxScore} {
		got, ok := ParseStrategy(st.String())
		if !ok || got != st {
			t.Errorf("ParseStrategy(%q) = %v, %v", st.String(), got, ok)
		}
	}
	for _, name := range []string{"nope", "wand", "maxscore-bm", "wand-bm"} {
		if _, ok := ParseStrategy(name); ok {
			t.Errorf("ParseStrategy accepted %q", name)
		}
	}
}

func TestEvalPanicsOnUnknown(t *testing.T) {
	s := buildShard(t, 3, 100)
	defer func() {
		if recover() == nil {
			t.Error("Eval with unknown strategy should panic")
		}
	}()
	Eval(Strategy(42), s, []string{"wa"}, 5)
}

func BenchmarkExhaustive(b *testing.B) {
	s := buildShard(b, 9, 10000)
	q := []string{"wa", "wb", "wc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Exhaustive(s, q, 10)
	}
}

func BenchmarkMaxScore(b *testing.B) {
	s := buildShard(b, 9, 10000)
	q := []string{"wa", "wb", "wc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MaxScore(s, q, 10)
	}
}

func TestTopKOfferZeroAlloc(t *testing.T) {
	// offer is the innermost call of every evaluation strategy; the slice
	// heap must never allocate after newTopK's single up-front make.
	tk := newTopK(10)
	if allocs := testing.AllocsPerRun(100, func() {
		for d := uint32(0); d < 64; d++ {
			tk.offer(d, float64(d%17)*1.25)
		}
	}); allocs != 0 {
		t.Errorf("topK.offer allocates %v per run, want 0", allocs)
	}
}
