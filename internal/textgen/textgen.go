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
	"runtime"
	"strings"
	"sync"

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

	r := &resolver{
		docs:       make([]Document, cfg.NumDocs),
		background: xrand.NewZipf(docRng, zipfExponent, cfg.VocabSize),
		samplers:   make([]*xrand.Zipf, cfg.NumTopics),
		topicTerms: c.TopicTerms,
		vocabSize:  cfg.VocabSize,
	}
	for i := range r.samplers {
		r.samplers[i] = xrand.NewZipf(docRng, topicZipfExponent, cfg.TopicTermCount)
	}
	topicPicker := xrand.NewZipf(docRng, 0.7, cfg.NumTopics)
	c.Docs = r.docs

	// Generation runs in two stages. This goroutine consumes the random
	// stream in document order, exactly as one loop resolving each token
	// as it drew it would, but records each token's raw draw instead of
	// its term. GOMAXPROCS workers take the draws a chunk of documents at
	// a time, resolve them to term IDs through the pure Zipf.Rank, count
	// them and build the documents' Terms maps. Every chunk in
	// circulation fits in both channels, so no send blocks.
	workers := runtime.GOMAXPROCS(0)
	chunks := workers + 2
	full, free := make(chan *drawChunk, chunks), make(chan *drawChunk, chunks)
	for range chunks {
		free <- new(drawChunk)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(full, free)
		}()
	}
	ch := <-free
	for i := range c.Docs {
		topic := topicPicker.Draw()
		length := int(docRng.LogNormal(logOfMean(meanDocLen, docLenSigma), docLenSigma))
		if length < 8 {
			length = 8
		}
		topical := 0 // topical (non-burst) tokens drawn so far in this document
		for tok := 0; tok < length; tok++ {
			var draw uint64
			if docRng.Float64() < topicMixture {
				if topical > 0 && docRng.Float64() < burstiness {
					// Burst: repeat a topical term this document already
					// used, concentrating its frequency.
					draw = drawBurst | uint64(docRng.Intn(topical))
				} else {
					draw = drawTopical | docRng.Uint64()>>11
					topical++
				}
			} else {
				draw = drawBackground | docRng.Uint64()>>11
			}
			ch.draws = append(ch.draws, draw)
		}
		ch.ends = append(ch.ends, len(ch.draws))
		c.Docs[i] = Document{ID: i, Topic: topic, Length: length}
		if len(ch.ends) == chunkDocs || i == len(c.Docs)-1 {
			full <- ch
			if i < len(c.Docs)-1 {
				ch = <-free
				ch.first, ch.ends, ch.draws = i+1, ch.ends[:0], ch.draws[:0]
			}
		}
	}
	close(full)
	wg.Wait()
	return c
}

// chunkDocs is how many documents' draws Generate hands a worker at once.
const chunkDocs = 512

// A token's raw draw: its kind in the top two bits, the draw below them.
// A Zipf draw keeps the 53 uniform bits RNG.Float64 scales into [0, 1);
// a burst keeps its index into the document's topical draws so far.
const (
	drawBackground uint64 = 0 << 62
	drawTopical    uint64 = 1 << 62
	drawBurst      uint64 = 2 << 62
	drawKind       uint64 = 3 << 62
)

// drawChunk is the raw draws of consecutive documents, the first of which
// is docs[first]: document first+j drew draws[k] for k in
// [ends[j-1], ends[j]) (from 0 for j = 0).
type drawChunk struct {
	first int
	ends  []int
	draws []uint64
}

// resolver is what Generate's workers share: the documents, whose Terms
// they fill, and the read-only samplers and topic tables that turn a raw
// draw into a term ID.
type resolver struct {
	docs       []Document
	background *xrand.Zipf
	samplers   []*xrand.Zipf // per topic, over its TopicTerms
	topicTerms [][]int
	vocabSize  int
}

// run resolves every chunk received on full, fills its documents' Terms
// maps and returns the chunk on free, until full is closed. It writes
// only the Terms field of documents the generating goroutine has
// finished with, and reads only their Topic.
func (r *resolver) run(full <-chan *drawChunk, free chan<- *drawChunk) {
	// counts is indexed by term ID and all zero between documents; ids
	// lists the terms the current document touched, so its map is made
	// at its final size with one insert per distinct term.
	counts := make([]int32, r.vocabSize)
	var ids, topical []int
	for ch := range full {
		start := 0
		for j, end := range ch.ends {
			d := &r.docs[ch.first+j]
			sampler, terms := r.samplers[d.Topic], r.topicTerms[d.Topic]
			ids, topical = ids[:0], topical[:0]
			for _, draw := range ch.draws[start:end] {
				var term int
				switch draw & drawKind {
				case drawBackground:
					term = r.background.Rank(unit(draw))
				case drawTopical:
					term = terms[sampler.Rank(unit(draw&^drawKind))]
					topical = append(topical, term)
				default:
					term = topical[draw&^drawKind]
				}
				if counts[term] == 0 {
					ids = append(ids, term)
				}
				counts[term]++
			}
			m := make(map[int]int, len(ids))
			for _, term := range ids {
				m[term] = int(counts[term])
				counts[term] = 0
			}
			d.Terms = m
			start = end
		}
		free <- ch
	}
}

// unit is the uniform variate in [0, 1) that RNG.Float64 makes of the 53
// bits u.
func unit(u uint64) float64 {
	return float64(u) / (1 << 53)
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
