package index

import (
	"bytes"
	"math"
	"testing"

	"cottage/internal/textgen"
	"cottage/internal/xrand"
)

// buildTestShard creates a small shard with a mix of common and rare terms.
func buildTestShard(t testing.TB) *Shard {
	t.Helper()
	b := NewBuilder(3, DefaultBM25(), 10)
	rng := xrand.New(5)
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	zipf := xrand.NewZipf(rng, 1.0, len(vocab))
	for d := 0; d < 400; d++ {
		terms := make(map[string]int)
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			terms[vocab[zipf.Draw()]]++
		}
		b.Add(int64(1000+d), terms, n)
	}
	s := b.Finalize()
	if err := s.Validate(); err != nil {
		t.Fatalf("test shard invalid: %v", err)
	}
	return s
}

func TestBuilderBasics(t *testing.T) {
	s := buildTestShard(t)
	if s.ID != 3 {
		t.Errorf("shard ID = %d", s.ID)
	}
	if s.NumDocs != 400 {
		t.Errorf("NumDocs = %d", s.NumDocs)
	}
	if s.GlobalDoc(0) != 1000 || s.GlobalDoc(399) != 1399 {
		t.Error("global IDs wrong")
	}
	if s.AvgDocLen < 20 || s.AvgDocLen > 80 {
		t.Errorf("AvgDocLen = %v", s.AvgDocLen)
	}
}

func TestLookup(t *testing.T) {
	s := buildTestShard(t)
	ti, ok := s.Lookup("alpha")
	if !ok || ti.Text != "alpha" {
		t.Fatal("Lookup failed for present term")
	}
	if _, ok := s.Lookup("nonexistent"); ok {
		t.Fatal("Lookup succeeded for absent term")
	}
}

func TestPostingsSortedAndValid(t *testing.T) {
	s := buildTestShard(t)
	for i := range s.Terms {
		ps := s.Terms[i].AllPostings()
		if len(ps) != s.Terms[i].Len() {
			t.Fatalf("term %q decodes %d postings, Len says %d", s.Terms[i].Text, len(ps), s.Terms[i].Len())
		}
		for j := 1; j < len(ps); j++ {
			if ps[j].Doc <= ps[j-1].Doc {
				t.Fatalf("term %q postings unsorted", s.Terms[i].Text)
			}
		}
	}
}

// mutatePostings decodes, mutates, and repacks one term's postings in
// place, preserving the existing block bounds — simulating a buggy
// writer whose packed bytes and checksums are self-consistent but whose
// content violates the structural invariants.
func mutatePostings(ti *TermInfo, f func(ps []Posting)) {
	ps := ti.AllPostings()
	f(ps)
	packed, blocks := packPostings(ps, new([]byte))
	for bi := range blocks {
		if bi < len(ti.Blocks) {
			blocks[bi].Max = ti.Blocks[bi].Max
		}
	}
	ti.Packed, ti.Blocks = packed, blocks
}

func TestBM25ScoreProperties(t *testing.T) {
	p := DefaultBM25()
	idf := 2.0
	base := p.Score(idf, 1, 100, 100)
	if base <= 0 {
		t.Fatal("score must be positive")
	}
	// Monotone in tf.
	if p.Score(idf, 5, 100, 100) <= base {
		t.Error("score should grow with tf")
	}
	// Saturation: bounded by idf*(k1+1).
	if p.Score(idf, 1000000, 100, 100) > idf*(p.K1+1) {
		t.Error("score exceeded tf->inf bound")
	}
	// Longer documents score lower at equal tf.
	if p.Score(idf, 3, 500, 100) >= p.Score(idf, 3, 50, 100) {
		t.Error("length normalization inverted")
	}
}

func TestTermStats(t *testing.T) {
	s := buildTestShard(t)
	for i := range s.Terms {
		ti := &s.Terms[i]
		st := ti.Stats
		if st.PostingLen != ti.Len() {
			t.Fatalf("%q: PostingLen mismatch", ti.Text)
		}
		if st.MinScore > st.Q1+1e-12 || st.Q1 > st.Median+1e-12 || st.Median > st.Q3+1e-12 || st.Q3 > st.MaxScore+1e-12 {
			t.Fatalf("%q: quantiles out of order: %+v", ti.Text, st)
		}
		if st.KthScore > st.MaxScore+1e-12 {
			t.Fatalf("%q: kth > max", ti.Text)
		}
		if st.Variance < 0 {
			t.Fatalf("%q: negative variance", ti.Text)
		}
		if st.NumMaxScore < 1 {
			t.Fatalf("%q: no posting attains max score", ti.Text)
		}
		if st.DocsWithin5OfMax < st.NumMaxScore {
			t.Fatalf("%q: 5%%-of-max band smaller than max count", ti.Text)
		}
		if st.DocsEverInTopK < min(s.StatsK, st.PostingLen) {
			t.Fatalf("%q: top-K insertions %d below minimum", ti.Text, st.DocsEverInTopK)
		}
		if st.DocsEverInTopK > st.PostingLen {
			t.Fatalf("%q: more insertions than postings", ti.Text)
		}
		if st.NumLocalMaxima < st.NumMaximaAboveMean {
			t.Fatalf("%q: above-mean maxima exceed total maxima", ti.Text)
		}
		if st.EstMaxScore < st.MaxScore {
			t.Fatalf("%q: estimated max score %v below true max %v", ti.Text, st.EstMaxScore, st.MaxScore)
		}
		// Verify the score moments against a direct recomputation.
		scores := s.Scores(ti)
		sum := 0.0
		max := 0.0
		for _, sc := range scores {
			sum += sc
			if sc > max {
				max = sc
			}
		}
		if math.Abs(sum-st.SumScore) > 1e-9 {
			t.Fatalf("%q: SumScore mismatch", ti.Text)
		}
		if math.Abs(max-st.MaxScore) > 1e-12 {
			t.Fatalf("%q: MaxScore mismatch", ti.Text)
		}
		if math.Abs(sum/float64(len(scores))-st.Mean) > 1e-9 {
			t.Fatalf("%q: Mean mismatch", ti.Text)
		}
	}
}

func TestKthScoreShortList(t *testing.T) {
	b := NewBuilder(0, DefaultBM25(), 10)
	b.Add(1, map[string]int{"rare": 2, "common": 1}, 10)
	b.Add(2, map[string]int{"common": 3}, 10)
	s := b.Finalize()
	ti, _ := s.Lookup("rare")
	// Fewer postings than K: the K-th score is the minimum.
	if ti.Stats.KthScore != ti.Stats.MinScore {
		t.Error("short-list KthScore should equal MinScore")
	}
}

func TestIDFDecreasesWithDF(t *testing.T) {
	s := buildTestShard(t)
	// alpha (rank 0) is the most common term; theta (rank 7) the rarest.
	a, _ := s.Lookup("alpha")
	z, _ := s.Lookup("theta")
	if a.Stats.PostingLen <= z.Stats.PostingLen {
		t.Skip("zipf draw did not order terms as expected")
	}
	if a.Stats.IDF >= z.Stats.IDF {
		t.Errorf("idf(common)=%v should be < idf(rare)=%v", a.Stats.IDF, z.Stats.IDF)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"  spaces   everywhere  ", []string{"spaces", "everywhere"}},
		{"abc123 DEF", []string{"abc123", "def"}},
		{"---", nil},
		{"trailing token", []string{"trailing", "token"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestAddText(t *testing.T) {
	b := NewBuilder(0, DefaultBM25(), 5)
	b.AddText(7, "the quick brown fox jumps over the lazy dog the end")
	s := b.Finalize()
	ti, ok := s.Lookup("the")
	if !ok {
		t.Fatal("term missing after AddText")
	}
	if ti.Posting(0).TF != 3 {
		t.Errorf("tf(the) = %d, want 3", ti.Posting(0).TF)
	}
	if s.DocLens[0] != 11 {
		t.Errorf("doc length = %d, want 11", s.DocLens[0])
	}
}

func TestSeek(t *testing.T) {
	ps := []Posting{{Doc: 2}, {Doc: 5}, {Doc: 9}, {Doc: 14}}
	cases := []struct {
		doc  uint32
		want int
	}{{0, 0}, {2, 0}, {3, 1}, {5, 1}, {9, 2}, {10, 3}, {14, 3}, {15, 4}}
	for _, c := range cases {
		if got := Seek(ps, c.doc); got != c.want {
			t.Errorf("Seek(%d) = %d, want %d", c.doc, got, c.want)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	s := buildTestShard(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs != s.NumDocs || got.NumTerms() != s.NumTerms() || got.ID != s.ID {
		t.Fatal("round-trip changed shard shape")
	}
	for i := range s.Terms {
		a, b := s.Terms[i], got.Terms[i]
		if a.Text != b.Text || a.Packed.N != b.Packed.N || !bytes.Equal(a.Packed.Data, b.Packed.Data) {
			t.Fatalf("term %d differs after round trip", i)
		}
		if a.Stats != b.Stats {
			t.Fatalf("term %q stats differ after round trip", a.Text)
		}
	}
	// The rebuilt dictionary must resolve.
	if _, ok := got.Lookup(s.Terms[0].Text); !ok {
		t.Fatal("dictionary not rebuilt")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := buildTestShard(t)
	path := t.TempDir() + "/shard.gob"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs != s.NumDocs {
		t.Fatal("file round trip lost documents")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/path/shard.gob"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestBuilderPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBuilder with statsK=0 should panic")
			}
		}()
		NewBuilder(0, DefaultBM25(), 0)
	}()
	b := NewBuilder(0, DefaultBM25(), 10)
	b.Add(1, map[string]int{"a": 1}, 1)
	b.Finalize()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add after Finalize should panic")
			}
		}()
		b.Add(2, map[string]int{"b": 1}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Finalize should panic")
			}
		}()
		b.Finalize()
	}()
	empty := NewBuilder(0, DefaultBM25(), 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Finalize of empty shard should panic")
			}
		}()
		empty.Finalize()
	}()
}

func TestZeroTFIgnored(t *testing.T) {
	b := NewBuilder(0, DefaultBM25(), 10)
	b.Add(1, map[string]int{"good": 2, "bad": 0}, 2)
	s := b.Finalize()
	if _, ok := s.Lookup("bad"); ok {
		t.Error("zero-tf term should not be indexed")
	}
}

func BenchmarkFinalize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildTestShard(b)
	}
}

// BenchmarkFinalizeCorpus times Finalize alone on one shard of 20 000
// documents of the synthetic corpus (24 000-term vocabulary, Zipfian list
// lengths), the shape the experiments and the benchmark fleets build.
func BenchmarkFinalizeCorpus(b *testing.B) {
	cfg := textgen.DefaultConfig()
	cfg.NumDocs = 20000
	corpus := textgen.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bld := NewBuilder(0, DefaultBM25(), 10)
		for _, d := range corpus.Docs {
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			bld.Add(int64(d.ID), terms, d.Length)
		}
		b.StartTimer()
		bld.Finalize()
	}
}
