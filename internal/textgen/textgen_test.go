package textgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"cottage/internal/xrand"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumDocs = 2000
	cfg.VocabSize = 3000
	cfg.NumTopics = 16
	cfg.TopicTermCount = 120
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("doc counts differ")
	}
	for i := range a.Docs {
		da, db := a.Docs[i], b.Docs[i]
		if da.Topic != db.Topic || da.Length != db.Length || len(da.Terms) != len(db.Terms) {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
	for i := range a.Vocab {
		if a.Vocab[i] != b.Vocab[i] {
			t.Fatalf("vocab term %d differs", i)
		}
	}
}

// corpusDigest hashes everything Generate produces: the vocabulary, each
// topic's term list, and every document's ID, topic, length and (term, tf)
// pairs in term order (Terms is a map, so its iteration order is not).
func corpusDigest(c *Corpus) string {
	h := sha256.New()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(len(c.Vocab))
	for _, w := range c.Vocab {
		put(len(w))
		h.Write([]byte(w))
	}
	put(len(c.TopicTerms))
	for _, terms := range c.TopicTerms {
		put(len(terms))
		put(terms...)
	}
	put(len(c.Docs))
	for _, d := range c.Docs {
		put(d.ID, d.Topic, d.Length, len(d.Terms))
		ids := make([]int, 0, len(d.Terms))
		for id := range d.Terms {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			put(id, d.Terms[id])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins the corpus bit for bit: every figure, trace and
// shard downstream is a function of it, so a faster generator must draw
// the same documents.
func TestGenerateGolden(t *testing.T) {
	const want = "e179ca3ba1e46a66e835865110887da8777acd3c5e46528f06ede28042b5f906"
	if got := corpusDigest(Generate(smallConfig())); got != want {
		t.Fatalf("corpus digest = %s, want %s", got, want)
	}
}

// referenceGenerate is Generate as one loop: it resolves each token as
// it draws it and fills each document's map as it goes. The two-stage
// Generate must produce the same corpus from the same stream.
func referenceGenerate(cfg Config) *Corpus {
	root := xrand.New(cfg.Seed)
	vocabRng := root.SplitName("vocab")
	topicRng := root.SplitName("topics")
	docRng := root.SplitName("docs")
	c := &Corpus{Config: cfg}
	c.Vocab = makeVocab(vocabRng, cfg.VocabSize)
	c.TopicTerms = makeTopics(topicRng, cfg)
	background := xrand.NewZipf(docRng, zipfExponent, cfg.VocabSize)
	topicSamplers := make([]*xrand.Zipf, cfg.NumTopics)
	for i := range topicSamplers {
		topicSamplers[i] = xrand.NewZipf(docRng, topicZipfExponent, cfg.TopicTermCount)
	}
	topicPicker := xrand.NewZipf(docRng, 0.7, cfg.NumTopics)
	c.Docs = make([]Document, cfg.NumDocs)
	for i := range c.Docs {
		topic := topicPicker.Draw()
		length := int(docRng.LogNormal(logOfMean(meanDocLen, docLenSigma), docLenSigma))
		if length < 8 {
			length = 8
		}
		terms := make(map[int]int)
		var usedTopical []int
		for tok := 0; tok < length; tok++ {
			var term int
			if docRng.Float64() < topicMixture {
				if len(usedTopical) > 0 && docRng.Float64() < burstiness {
					term = usedTopical[docRng.Intn(len(usedTopical))]
				} else {
					term = c.TopicTerms[topic][topicSamplers[topic].Draw()]
					usedTopical = append(usedTopical, term)
				}
			} else {
				term = background.Draw()
			}
			terms[term]++
		}
		c.Docs[i] = Document{ID: i, Topic: topic, Length: length, Terms: terms}
	}
	return c
}

// TestGenerateMatchesReference: the two-stage Generate draws the corpus
// the one-loop reference draws, at document counts on both sides of a
// chunk boundary and with fewer, as many and more workers than cores
// and than chunks in flight.
func TestGenerateMatchesReference(t *testing.T) {
	for _, n := range []int{1, chunkDocs - 1, chunkDocs, chunkDocs + 1, 2000} {
		cfg := smallConfig()
		cfg.NumDocs = n
		want := corpusDigest(referenceGenerate(cfg))
		for _, procs := range []int{1, 2, 5} {
			old := runtime.GOMAXPROCS(procs)
			got := corpusDigest(Generate(cfg))
			runtime.GOMAXPROCS(old)
			if got != want {
				t.Errorf("%d docs at GOMAXPROCS %d: corpus digest %s, want the reference's %s", n, procs, got, want)
			}
		}
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 999
	a := Generate(smallConfig())
	b := Generate(cfg2)
	same := 0
	for i := range a.Docs {
		if a.Docs[i].Length == b.Docs[i].Length {
			same++
		}
	}
	if same == len(a.Docs) {
		t.Fatal("different seeds produced identical document lengths")
	}
}

func TestDocumentInvariants(t *testing.T) {
	c := Generate(smallConfig())
	for i, d := range c.Docs {
		if d.ID != i {
			t.Fatalf("doc %d has ID %d", i, d.ID)
		}
		if d.Topic < 0 || d.Topic >= c.Config.NumTopics {
			t.Fatalf("doc %d topic out of range: %d", i, d.Topic)
		}
		if d.Length < 8 {
			t.Fatalf("doc %d shorter than minimum: %d", i, d.Length)
		}
		sum := 0
		for term, tf := range d.Terms {
			if term < 0 || term >= c.Config.VocabSize {
				t.Fatalf("doc %d has out-of-vocab term %d", i, term)
			}
			if tf <= 0 {
				t.Fatalf("doc %d term %d has non-positive tf", i, term)
			}
			sum += tf
		}
		if sum != d.Length {
			t.Fatalf("doc %d term frequencies sum to %d, length %d", i, sum, d.Length)
		}
	}
}

func TestVocabUnique(t *testing.T) {
	c := Generate(smallConfig())
	seen := make(map[string]bool)
	for _, w := range c.Vocab {
		if w == "" {
			t.Fatal("empty vocabulary word")
		}
		if seen[w] {
			t.Fatalf("duplicate vocabulary word %q", w)
		}
		seen[w] = true
	}
}

func TestZipfianVocabUsage(t *testing.T) {
	c := Generate(smallConfig())
	freq := make([]int, c.Config.VocabSize)
	for _, d := range c.Docs {
		for term, tf := range d.Terms {
			freq[term] += tf
		}
	}
	// Head terms should vastly outnumber tail terms.
	head, tail := 0, 0
	for i := 0; i < 20; i++ {
		head += freq[i]
	}
	for i := c.Config.VocabSize - 500; i < c.Config.VocabSize; i++ {
		tail += freq[i]
	}
	if head <= tail {
		t.Errorf("head terms (%d) should be more frequent than tail terms (%d)", head, tail)
	}
}

func TestTopicTermsWellFormed(t *testing.T) {
	c := Generate(smallConfig())
	if len(c.TopicTerms) != c.Config.NumTopics {
		t.Fatalf("TopicTerms has %d entries", len(c.TopicTerms))
	}
	for ti, terms := range c.TopicTerms {
		if len(terms) != c.Config.TopicTermCount {
			t.Fatalf("topic %d has %d terms", ti, len(terms))
		}
		seen := make(map[int]bool)
		for _, term := range terms {
			if term < 0 || term >= c.Config.VocabSize {
				t.Fatalf("topic %d references invalid term %d", ti, term)
			}
			if seen[term] {
				t.Fatalf("topic %d repeats term %d", ti, term)
			}
			seen[term] = true
		}
	}
}

func TestAllocateRoundRobin(t *testing.T) {
	c := Generate(smallConfig())
	shards := c.AllocateRoundRobin(7)
	if len(shards) != 7 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	seen := make(map[int]bool)
	for _, s := range shards {
		total += len(s)
		for _, id := range s {
			if seen[id] {
				t.Fatalf("doc %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	if total != len(c.Docs) {
		t.Fatalf("allocated %d of %d docs", total, len(c.Docs))
	}
	// Round-robin shard sizes differ by at most one.
	minLen, maxLen := len(shards[0]), len(shards[0])
	for _, s := range shards {
		if len(s) < minLen {
			minLen = len(s)
		}
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if maxLen-minLen > 1 {
		t.Errorf("round-robin imbalance: %d..%d", minLen, maxLen)
	}
}

func TestAllocateTopicalSkew(t *testing.T) {
	c := Generate(smallConfig())
	const numShards = 8
	shards := c.AllocateTopical(numShards, 2, 0.1, 42)

	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if total != len(c.Docs) {
		t.Fatalf("allocated %d of %d docs", total, len(c.Docs))
	}

	// Measure topical concentration: for each topic, the two largest
	// shard shares should hold most of its documents.
	byTopicShard := make([][]int, c.Config.NumTopics)
	for ti := range byTopicShard {
		byTopicShard[ti] = make([]int, numShards)
	}
	for si, s := range shards {
		for _, id := range s {
			byTopicShard[c.Docs[id].Topic][si]++
		}
	}
	concentrated := 0
	for ti := range byTopicShard {
		counts := byTopicShard[ti]
		topicTotal := 0
		best1, best2 := 0, 0
		for _, n := range counts {
			topicTotal += n
			if n > best1 {
				best1, best2 = n, best1
			} else if n > best2 {
				best2 = n
			}
		}
		if topicTotal == 0 {
			continue
		}
		if float64(best1+best2)/float64(topicTotal) > 0.7 {
			concentrated++
		}
	}
	if concentrated < c.Config.NumTopics/2 {
		t.Errorf("only %d/%d topics concentrated on home shards", concentrated, c.Config.NumTopics)
	}
}

func TestAllocatePanics(t *testing.T) {
	c := Generate(smallConfig())
	cases := []func(){
		func() { c.AllocateRoundRobin(0) },
		func() { c.AllocateTopical(0, 1, 0, 1) },
		func() { c.AllocateTopical(4, 5, 0, 1) },
		func() { c.AllocateTopical(4, 2, 1.5, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	bad := smallConfig()
	bad.NumDocs = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for zero NumDocs")
			}
		}()
		Generate(bad)
	}()
	bad2 := smallConfig()
	bad2.TopicTermCount = bad2.VocabSize + 1
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for oversized TopicTermCount")
			}
		}()
		Generate(bad2)
	}()
}

func TestTotalTokens(t *testing.T) {
	c := Generate(smallConfig())
	total := 0
	for _, d := range c.Docs {
		total += d.Length
	}
	avg := float64(total) / float64(len(c.Docs))
	if avg < 100 || avg > 400 {
		t.Errorf("average doc length %v outside sane range", avg)
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate(cfg)
	}
}
