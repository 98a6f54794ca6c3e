package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"cottage/internal/textgen"
)

func testCorpus() *textgen.Corpus {
	cfg := textgen.DefaultConfig()
	cfg.NumDocs = 500
	cfg.VocabSize = 2000
	cfg.NumTopics = 8
	cfg.TopicTermCount = 100
	return textgen.Generate(cfg)
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCorpus()
	cfg := Config{Kind: Wikipedia, Seed: 9, NumQueries: 200, QPS: 10}
	a := Generate(c, cfg)
	b := Generate(c, cfg)
	for i := range a {
		if a[i].ArrivalMS != b[i].ArrivalMS || len(a[i].Terms) != len(b[i].Terms) {
			t.Fatalf("query %d differs across runs", i)
		}
		for j := range a[i].Terms {
			if a[i].Terms[j] != b[i].Terms[j] {
				t.Fatalf("query %d term %d differs", i, j)
			}
		}
	}
}

func TestArrivalsMonotoneAndPoisson(t *testing.T) {
	c := testCorpus()
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 1, NumQueries: 5000, QPS: 10})
	prev := -1.0
	for _, q := range qs {
		if q.ArrivalMS <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		prev = q.ArrivalMS
	}
	// Mean gap should be ~100 ms at 10 QPS.
	meanGap := DurationMS(qs) / float64(len(qs))
	if math.Abs(meanGap-100) > 10 {
		t.Errorf("mean inter-arrival %v ms, want ~100", meanGap)
	}
}

func TestQueryShape(t *testing.T) {
	c := testCorpus()
	for _, kind := range []Kind{Wikipedia, Lucene} {
		qs := Generate(c, Config{Kind: kind, Seed: 2, NumQueries: 2000, QPS: 10})
		lenCounts := make(map[int]int)
		for i, q := range qs {
			if q.ID != i {
				t.Fatalf("%v: query %d has ID %d", kind, i, q.ID)
			}
			if len(q.Terms) < 1 || len(q.Terms) > 4 {
				t.Fatalf("%v: query length %d out of range", kind, len(q.Terms))
			}
			seen := map[string]bool{}
			for _, term := range q.Terms {
				if term == "" {
					t.Fatalf("%v: empty term", kind)
				}
				if seen[term] {
					t.Fatalf("%v: duplicate term in query", kind)
				}
				seen[term] = true
			}
			lenCounts[len(q.Terms)]++
		}
		for l := 1; l <= 4; l++ {
			if lenCounts[l] == 0 {
				t.Errorf("%v: no queries of length %d", kind, l)
			}
		}
	}
}

func TestKindsDiffer(t *testing.T) {
	c := testCorpus()
	wiki := Generate(c, Config{Kind: Wikipedia, Seed: 3, NumQueries: 3000, QPS: 10})
	luc := Generate(c, Config{Kind: Lucene, Seed: 3, NumQueries: 3000, QPS: 10})
	wSingle, lSingle := 0, 0
	for _, q := range wiki {
		if len(q.Terms) == 1 {
			wSingle++
		}
	}
	for _, q := range luc {
		if len(q.Terms) == 1 {
			lSingle++
		}
	}
	// Wikipedia profile is more single-term heavy.
	if wSingle <= lSingle {
		t.Errorf("wiki single-term %d should exceed lucene %d", wSingle, lSingle)
	}
}

func TestTermPopularitySkewed(t *testing.T) {
	c := testCorpus()
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 4, NumQueries: 5000, QPS: 10})
	freq := map[string]int{}
	total := 0
	for _, q := range qs {
		for _, term := range q.Terms {
			freq[term]++
			total++
		}
	}
	max := 0
	for _, n := range freq {
		if n > max {
			max = n
		}
	}
	// The most popular term should appear in well over its uniform share.
	if float64(max) < 5*float64(total)/float64(len(freq)) {
		t.Errorf("term popularity too flat: max %d of %d over %d distinct", max, total, len(freq))
	}
}

func TestTrainTestSplit(t *testing.T) {
	c := testCorpus()
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 5, NumQueries: 100, QPS: 10})
	train, test := TrainTestSplit(qs, 0.8)
	if len(train) != 80 || len(test) != 20 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad frac should panic")
			}
		}()
		TrainTestSplit(qs, 1.5)
	}()
}

func TestGeneratePanics(t *testing.T) {
	c := testCorpus()
	for i, cfg := range []Config{
		{Kind: Wikipedia, NumQueries: 0, QPS: 1},
		{Kind: Wikipedia, NumQueries: 10, QPS: 0},
		{Kind: Kind(42), NumQueries: 10, QPS: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			Generate(c, cfg)
		}()
	}
}

func TestDurationEmpty(t *testing.T) {
	if DurationMS(nil) != 0 {
		t.Error("empty trace duration should be 0")
	}
}

func TestKindString(t *testing.T) {
	if Wikipedia.String() != "wikipedia" || Lucene.String() != "lucene" || Kind(9).String() != "unknown" {
		t.Error("Kind.String wrong")
	}
}

func BenchmarkGenerate(b *testing.B) {
	c := testCorpus()
	cfg := Config{Kind: Wikipedia, Seed: 1, NumQueries: 1000, QPS: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Generate(c, cfg)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := testCorpus()
	qs := Generate(c, Config{Kind: Wikipedia, Seed: 8, NumQueries: 150, QPS: 20})
	path := t.TempDir() + "/trace.bin"
	if err := SaveFile(path, qs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("round trip lost queries: %d vs %d", len(got), len(qs))
	}
	for i := range qs {
		if got[i].ArrivalMS != qs[i].ArrivalMS || len(got[i].Terms) != len(qs[i].Terms) {
			t.Fatalf("query %d differs", i)
		}
		for j := range qs[i].Terms {
			if got[i].Terms[j] != qs[i].Terms[j] {
				t.Fatalf("query %d term %d differs", i, j)
			}
		}
	}
}

// TestTraceGolden pins the bytes Append writes for the benchmark's
// evaluation trace (default vocabulary, seed 202, 4000 Wikipedia
// queries): the same trace encodes to the same bytes in every process.
func TestTraceGolden(t *testing.T) {
	cc := textgen.DefaultConfig()
	cc.NumDocs = 1
	qs := Generate(textgen.Generate(cc), Config{Kind: Wikipedia, Seed: 202, NumQueries: 4000, QPS: 45})
	sum := sha256.Sum256(Append(nil, qs))
	const want = "6971d81e76b96156c5e6c37c38dff3e5558a91c0791c828d9af6b8dc577f3f28"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("trace SHA-256 %s, want %s", got, want)
	}
}

func TestLoadRejectsBadTraces(t *testing.T) {
	// Out-of-order arrivals.
	bad := []Query{{ID: 0, Terms: []string{"a"}, ArrivalMS: 10}, {ID: 1, Terms: []string{"b"}, ArrivalMS: 5}}
	if _, err := Parse(Append(nil, bad)); err == nil {
		t.Error("out-of-order trace should fail to load")
	}
	// Empty terms.
	if _, err := Parse(Append(nil, []Query{{ID: 0, ArrivalMS: 1}})); err == nil {
		t.Error("empty-terms trace should fail to load")
	}
	// Garbage bytes.
	if _, err := Parse([]byte("nope")); err == nil {
		t.Error("garbage should fail to load")
	}
}

// TestRepeatRate pins how much the generators repeat on the vocabulary
// and seed the repository benchmark uses (bench/loadgen: default corpus,
// seed 202). These are the natural hit rates of a per-query memo — the
// figures DESIGN.md §19 and CHANGES.md quote next to the benchmark's
// wrap-around regime, where the same 4000 queries come round again and
// nearly everything hits.
func TestRepeatRate(t *testing.T) {
	if w, tm := RepeatRate(nil); w != 0 || tm != 0 {
		t.Fatalf("empty trace: %v %v", w, tm)
	}
	qs := []Query{
		{Terms: []string{"a", "b"}},
		{Terms: []string{"b", "a"}}, // whole-query repeat, order-insensitive
		{Terms: []string{"a"}},      // new query, every term seen
		{Terms: []string{"a", "c"}}, // new query, new term
	}
	if w, tm := RepeatRate(qs); w != 0.25 || tm != 0.5 {
		t.Fatalf("RepeatRate = %v, %v; want 0.25, 0.5", w, tm)
	}

	if testing.Short() {
		t.Skip("generates 100k-query traces")
	}
	// Vocabulary and topics do not depend on the document count.
	cc := textgen.DefaultConfig()
	cc.NumDocs = 1
	c := textgen.Generate(cc)
	for _, tc := range []struct {
		kind         Kind
		n            int
		whole, terms float64
	}{
		{Wikipedia, 4000, 0.2067, 0.4510},
		{Wikipedia, 100000, 0.4767, 0.8732},
		{Lucene, 4000, 0.0563, 0.2450},
		{Lucene, 100000, 0.2136, 0.8462},
	} {
		w, tm := RepeatRate(Generate(c, Config{Kind: tc.kind, Seed: 202, NumQueries: tc.n, QPS: 45}))
		if math.Abs(w-tc.whole) > 1e-4 || math.Abs(tm-tc.terms) > 1e-4 {
			t.Errorf("%s, %d queries: whole %.4f terms %.4f, want %.4f %.4f", tc.kind, tc.n, w, tm, tc.whole, tc.terms)
		}
	}
}
