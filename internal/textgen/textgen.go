// Package textgen synthesizes a document corpus that stands in for the
// paper's 34-million-document Wikipedia dump. The experiments do not need
// Wikipedia's text; they need its statistical fingerprints:
//
//   - a Zipfian vocabulary, so posting-list lengths span four orders of
//     magnitude and per-query work is highly variable (Fig. 2a);
//   - topical locality, so that when documents are distributed across
//     shards some ISNs contribute many of a query's top-K documents and
//     others contribute none (Fig. 2b) — the skew Algorithm 1 exploits;
//   - realistic document-length spread, which feeds BM25 normalization.
//
// The generator is fully deterministic given a seed, so every experiment
// in the repository is reproducible bit-for-bit.
package textgen

import (
	"fmt"
	"math"
	"strings"

	"cottage/internal/xrand"
)

// Config controls corpus synthesis. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Seed      uint64
	NumDocs   int
	VocabSize int
	NumTopics int

	// TopicTermCount is how many vocabulary terms each topic draws its
	// topical words from.
	TopicTermCount int
}

// The shape of every synthesized corpus. They are typed, so each is
// the float64 nearest its literal wherever it is used: no expression
// folds an exact untyped value into a different float64.
const (
	// zipfExponent shapes the background term-frequency distribution.
	// 1.0 reproduces classic Zipf behaviour for natural language.
	zipfExponent float64 = 1.05

	// topicZipfExponent shapes each topic's internal term distribution.
	topicZipfExponent float64 = 0.9

	// topicMixture is the probability that a token comes from the
	// document's topic rather than the background distribution. Higher
	// values mean stronger shard skew after topic-aware allocation.
	topicMixture float64 = 0.55

	// meanDocLen and docLenSigma parameterize the log-normal document
	// length distribution (in tokens).
	meanDocLen  float64 = 220
	docLenSigma float64 = 0.55

	// burstiness is the probability that a topical token repeats a topic
	// term already used in the same document (Church–Gale term
	// burstiness). Bursty term frequencies make per-term score
	// distributions multi-modal — a tf=1 crowd plus a heavy high-tf
	// mode — which is what real text looks like and why a fitted Gamma
	// misestimates the tail (the paper's Fig. 6, and the root cause of
	// Taily's quality loss).
	burstiness float64 = 0.45
)

// DefaultConfig returns the corpus used by the experiment harness: large
// enough to exhibit the paper's variance phenomena, small enough to index
// in a few seconds.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		NumDocs:        48000,
		VocabSize:      24000,
		NumTopics:      64,
		TopicTermCount: 400,
	}
}

// Document is one synthesized document: a bag of term identifiers with
// counts. Term IDs index into Corpus.Vocab.
type Document struct {
	ID     int
	Topic  int
	Length int // total tokens
	// Terms maps term ID -> frequency. A map keeps generation simple;
	// the indexer converts to packed postings.
	Terms map[int]int
}

// Corpus is a complete synthesized collection.
type Corpus struct {
	Config Config
	Vocab  []string
	Docs   []Document
	// TopicTerms[topic] lists the term IDs belonging to that topic,
	// most-probable first. Trace generators use it to form topical
	// queries.
	TopicTerms [][]int
}

// Generate synthesizes a corpus from cfg. It panics on nonsensical
// configuration (non-positive sizes), since that is always a programming
// error in this repository.
func Generate(cfg Config) *Corpus {
	if cfg.NumDocs <= 0 || cfg.VocabSize <= 0 || cfg.NumTopics <= 0 {
		panic("textgen: NumDocs, VocabSize and NumTopics must be positive")
	}
	if cfg.TopicTermCount <= 0 || cfg.TopicTermCount > cfg.VocabSize {
		panic("textgen: TopicTermCount must be in (0, VocabSize]")
	}
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

	// Each document's tokens are counted in counts (indexed by term ID,
	// all zero between documents) and the IDs it touched are listed, so
	// its Terms map is made at its final size with one insert per
	// distinct term. A second goroutine builds the maps, a chunk of
	// documents at a time; the random stream stays on this one, in
	// document order.
	counts := make([]int32, cfg.VocabSize)
	var usedTopical []int
	c.Docs = make([]Document, cfg.NumDocs)
	// Three chunks circulate: one being filled, one being turned into
	// maps and one queued between the two. Both channels can hold all
	// three, so no send blocks.
	const chunks = 3
	full, free, done := make(chan *termChunk, chunks), make(chan *termChunk, chunks), make(chan struct{})
	for range chunks {
		free <- new(termChunk)
	}
	go buildTermMaps(c.Docs, full, free, done)
	ch := <-free
	for i := range c.Docs {
		topic := topicPicker.Draw()
		length := int(docRng.LogNormal(logOfMean(meanDocLen, docLenSigma), docLenSigma))
		if length < 8 {
			length = 8
		}
		usedTopical = usedTopical[:0]
		start := len(ch.ids)
		for tok := 0; tok < length; tok++ {
			var term int
			if docRng.Float64() < topicMixture {
				if len(usedTopical) > 0 && docRng.Float64() < burstiness {
					// Burst: repeat a topical term this document already
					// used, concentrating its frequency.
					term = usedTopical[docRng.Intn(len(usedTopical))]
				} else {
					term = c.TopicTerms[topic][topicSamplers[topic].Draw()]
					usedTopical = append(usedTopical, term)
				}
			} else {
				term = background.Draw()
			}
			if counts[term] == 0 {
				ch.ids = append(ch.ids, term)
			}
			counts[term]++
		}
		for _, term := range ch.ids[start:] {
			ch.tfs = append(ch.tfs, counts[term])
			counts[term] = 0
		}
		ch.ends = append(ch.ends, len(ch.ids))
		c.Docs[i] = Document{ID: i, Topic: topic, Length: length}
		if len(ch.ends) == chunkDocs || i == len(c.Docs)-1 {
			full <- ch
			ch = <-free
			ch.first, ch.ends, ch.ids, ch.tfs = i+1, ch.ends[:0], ch.ids[:0], ch.tfs[:0]
		}
	}
	close(full)
	<-done
	return c
}

// chunkDocs is how many documents' term counts Generate hands to the
// map-building goroutine at once.
const chunkDocs = 512

// termChunk is the term counts of consecutive documents, the first of
// which is docs[first]: document first+j counted tfs[k] occurrences of
// term ids[k] for k in [ends[j-1], ends[j]) (from 0 for j = 0).
type termChunk struct {
	first int
	ends  []int
	ids   []int
	tfs   []int32
}

// buildTermMaps fills the Terms map of every document in each chunk
// received on full, returns the chunk on free, and closes done once full
// is closed. It writes only the Terms field of documents the generating
// goroutine has finished with.
func buildTermMaps(docs []Document, full <-chan *termChunk, free chan<- *termChunk, done chan<- struct{}) {
	for ch := range full {
		start := 0
		for j, end := range ch.ends {
			terms := make(map[int]int, end-start)
			for k := start; k < end; k++ {
				terms[ch.ids[k]] = int(ch.tfs[k])
			}
			docs[ch.first+j].Terms = terms
			start = end
		}
		free <- ch
	}
	close(done)
}

// logOfMean converts a desired arithmetic mean of a log-normal into the
// underlying normal's mu: E[X] = exp(mu + sigma^2/2).
func logOfMean(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// makeVocab produces deterministic pseudo-words. Low-rank (frequent) terms
// are short, high-rank terms longer, loosely matching natural language.
func makeVocab(rng *xrand.RNG, n int) []string {
	const (
		consonants = "bcdfghjklmnprstvwz"
		vowels     = "aeiou"
	)
	seen := make(map[string]bool, n)
	vocab := make([]string, 0, n)
	for len(vocab) < n {
		syllables := 1 + len(vocab)/(n/4+1) + rng.Intn(2)
		var b strings.Builder
		for s := 0; s < syllables+1; s++ {
			b.WriteByte(consonants[rng.Intn(len(consonants))])
			b.WriteByte(vowels[rng.Intn(len(vowels))])
		}
		w := b.String()
		if seen[w] {
			w = fmt.Sprintf("%s%d", w, len(vocab))
		}
		seen[w] = true
		vocab = append(vocab, w)
	}
	return vocab
}

// makeTopics assigns each topic a set of characteristic terms. Topics
// deliberately avoid the global top of the vocabulary (those behave like
// stopwords) and may overlap slightly, as real topics do.
func makeTopics(rng *xrand.RNG, cfg Config) [][]int {
	topics := make([][]int, cfg.NumTopics)
	// Candidate terms: skip the most frequent 2% (stopword-like).
	start := cfg.VocabSize / 50
	candidates := make([]int, cfg.VocabSize-start)
	for i := range candidates {
		candidates[i] = start + i
	}
	for t := range topics {
		xrand.Shuffle(rng, candidates)
		terms := make([]int, cfg.TopicTermCount)
		copy(terms, candidates)
		topics[t] = terms
	}
	return topics
}

// AllocateRoundRobin splits documents across numShards shards in
// round-robin order. This is the paper's "random" (source-ordered)
// allocation: every shard sees every topic, so per-query quality skew is
// mild.
func (c *Corpus) AllocateRoundRobin(numShards int) [][]int {
	if numShards <= 0 {
		panic("textgen: non-positive shard count")
	}
	shards := make([][]int, numShards)
	for i := range c.Docs {
		s := i % numShards
		shards[s] = append(shards[s], i)
	}
	return shards
}

// AllocateTopical distributes documents with topic affinity: each topic
// has a small set of "home" shards that receive most of its documents,
// plus a spill fraction spread uniformly. This mirrors the topical shard
// allocation used in selective-search research (Kulkarni & Callan,
// CIKM'10) and produces Fig. 2b's skew: for a topical query, a handful of
// ISNs hold almost all relevant documents.
//
// spill is the fraction of a topic's documents placed uniformly at random
// (0 = perfectly topical, 1 = uniform). homeShards is how many shards
// host each topic's core.
func (c *Corpus) AllocateTopical(numShards, homeShards int, spill float64, seed uint64) [][]int {
	if numShards <= 0 || homeShards <= 0 || homeShards > numShards {
		panic("textgen: invalid shard counts")
	}
	if spill < 0 || spill > 1 {
		panic("textgen: spill must be in [0,1]")
	}
	rng := xrand.New(seed).SplitName("allocate")
	// Choose home shards per topic.
	homes := make([][]int, c.Config.NumTopics)
	for t := range homes {
		perm := rng.Perm(numShards)
		homes[t] = perm[:homeShards]
	}
	shards := make([][]int, numShards)
	for i, d := range c.Docs {
		var s int
		if rng.Float64() < spill {
			s = rng.Intn(numShards)
		} else {
			h := homes[d.Topic]
			s = h[rng.Intn(len(h))]
		}
		shards[s] = append(shards[s], i)
	}
	return shards
}
