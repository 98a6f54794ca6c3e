// Package index implements the inverted-index substrate that stands in for
// Solr/Lucene in the paper's testbed: a dictionary, document-ordered
// postings lists, BM25 scoring, and — crucially for Cottage — the per-term
// index-time statistics that feed the quality predictor (Table I) and the
// latency predictor (Table II). The paper computes all its query features
// "during the indexing phase" from term statistics; Finalize does the same
// here, so query-time feature extraction is a handful of map lookups.
package index

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"cottage/internal/par"
)

// Posting is one (document, term-frequency) pair. Doc is a shard-local
// document ordinal; GlobalDoc translates to a collection-wide ID.
type Posting struct {
	Doc uint32
	TF  uint32
}

// TermInfo is everything a shard knows about one term: its bit-packed
// postings and the index-time statistics over that term's BM25 score
// distribution.
type TermInfo struct {
	Text string
	// Packed holds the postings, block-bit-packed (see packed.go):
	// document gaps and tf-1 values at per-block fixed widths, decoded
	// block-at-a-time by DecodeBlockInto.
	Packed PackedPostings
	Stats  TermStats
	// Blocks is the block-max overlay and postings skip list: per-block
	// score upper bounds plus the location and widths of each block's
	// packed payload (see blockmax.go). Built in
	// Finalize and serialized with the shard; dynamic pruning, anytime
	// traversal, and every decode depend on it.
	Blocks []Block
	// Sums[i] is the CRC32C of block i's packed payload plus its decode
	// header (see integrity.go). Sealed by SealIntegrity; the query-time
	// and scrub-time verifiers compare against it.
	Sums []uint32
}

// Shard is one ISN's index: a self-contained searchable partition. Shards
// are immutable once built (Builder.Finalize), which makes them safe for
// concurrent readers without locking.
type Shard struct {
	ID        int
	NumDocs   int
	AvgDocLen float64
	// DocLens[local] is the token length of the document, used by BM25
	// length normalization.
	DocLens []uint32
	// GlobalIDs[local] is the collection-wide document identifier.
	GlobalIDs []int64
	// dict maps term text to an offset into Terms.
	dict  map[string]int32
	Terms []TermInfo

	BM25 BM25Params
	// StatsK is the K used for the K-th-score statistics (top-K oriented
	// features). The paper evaluates P@10, so the default is 10.
	StatsK int

	// norms[dl] is BM25's length normalisation for a document of dl
	// tokens (see buildNorms): derived from BM25, AvgDocLen and DocLens on
	// every path that yields a serving shard, never serialized.
	norms []float64

	// Digest is the whole-shard CRC32C over document metadata and the
	// per-block checksums (see integrity.go).
	Digest uint32
	// integ is the lazy query-time verification memo; nil only for
	// shards that predate SealIntegrity (never after Finalize or load).
	integ *integState
}

// BM25Params are the classic Okapi BM25 constants.
type BM25Params struct {
	K1 float64
	B  float64
}

// DefaultBM25 returns the widely used K1=1.2, B=0.75 parameterization.
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75} }

// Score computes the BM25 contribution of a term occurring tf times in a
// document of length dl, given the term's idf and the shard's average
// document length. It is the reference definition: Shard.TermScore, which
// every evaluator calls, must return the same bits.
func (p BM25Params) Score(idf float64, tf, dl uint32, avgDocLen float64) float64 {
	return bm25(idf, float64(tf), p.K1+1, p.lengthNorm(dl, avgDocLen))
}

// bm25 is the scoring expression itself, written once so that the
// reference formula and the table-driven scorers cannot drift apart: they
// differ only in where norm comes from.
func bm25(idf, ftf, k1p1, norm float64) float64 {
	return idf * ftf * k1p1 / (ftf + norm)
}

// lengthNorm is BM25's document-length normalisation, the K1*(1-B+B*dl/avgdl)
// term of the denominator. The outer float64 conversion rounds the product
// before bm25 adds the term frequency to it: without it an architecture
// with fused multiply-add may compute ftf + K1*(...) in one rounding, and a
// value read back from the shard's table (already rounded) would score a
// last bit differently from the formula.
func (p BM25Params) lengthNorm(dl uint32, avgDocLen float64) float64 {
	return float64(p.K1 * (1 - p.B + p.B*float64(dl)/avgDocLen))
}

// Lookup returns the TermInfo for text and whether the shard contains it.
func (s *Shard) Lookup(text string) (*TermInfo, bool) {
	i, ok := s.dict[text]
	if !ok {
		return nil, false
	}
	return &s.Terms[i], true
}

// NumTerms returns the dictionary size.
func (s *Shard) NumTerms() int { return len(s.Terms) }

// GlobalDoc translates a shard-local document ordinal to its
// collection-wide ID.
func (s *Shard) GlobalDoc(local uint32) int64 { return s.GlobalIDs[local] }

// TermScore computes the BM25 score of a single posting of term ti. It is
// BM25Params.Score with the length normalisation read from the shard's
// table — one divide per posting instead of two — and returns the same
// bits, because a table entry is the very subexpression Score computes.
func (s *Shard) TermScore(ti *TermInfo, p Posting) float64 {
	return s.score(ti.Stats.IDF, p)
}

func (s *Shard) score(idf float64, p Posting) float64 {
	return bm25(idf, float64(p.TF), s.BM25.K1+1, s.docNorm(p.Doc))
}

// ScoreBlock is TermScore over lanes [from, to) of a decoded block of ti
// (DecodeBlockInto's docs and tfs), written to the same lanes of scores.
// The term's idf and K1+1 are read once for the block instead of once per
// posting, and the block's divides run back to back.
func (s *Shard) ScoreBlock(ti *TermInfo, docs, tfs *[BlockSize]uint32, from, to int, scores *[BlockSize]float64) {
	idf, k1p1 := ti.Stats.IDF, s.BM25.K1+1
	for j := from; j < to; j++ {
		scores[j] = bm25(idf, float64(tfs[j]), k1p1, s.docNorm(docs[j]))
	}
}

// docNorm is the length normalisation of document doc. A length past the
// table — a shard assembled without buildNorms, or a document longer than
// maxNormLen — is computed from the formula instead.
func (s *Shard) docNorm(doc uint32) float64 {
	dl := s.DocLens[doc]
	if int(dl) < len(s.norms) {
		return s.norms[dl]
	}
	return s.BM25.lengthNorm(dl, s.AvgDocLen)
}

// maxNormLen bounds the normalisation table: document lengths come from
// shard files, and one absurd length must not size a multi-gigabyte
// allocation. Longer documents are scored from the formula.
const maxNormLen = 1 << 16

// buildNorms fills the length-normalisation table, indexed by document
// length up to the shard's longest document: 8 B x (longest + 1), at most
// 8 B x maxNormLen, whatever the number of documents. Finalize and both
// ReadShard loaders call it.
func (s *Shard) buildNorms() {
	longest := uint32(0)
	for _, dl := range s.DocLens {
		if dl > longest {
			longest = dl
		}
	}
	if longest >= maxNormLen {
		longest = maxNormLen - 1
	}
	s.norms = make([]float64, longest+1)
	for dl := range s.norms {
		s.norms[dl] = s.BM25.lengthNorm(uint32(dl), s.AvgDocLen)
	}
}

// NormTableBytes is the resident size of the length-normalisation table.
func (s *Shard) NormTableBytes() int { return 8 * len(s.norms) }

// Builder accumulates documents and produces an immutable Shard. It is not
// safe for concurrent use; build shards in parallel with one Builder each.
// Finalize itself spreads its per-term work over every core.
//
// Add appends every posting to one log and counts it under its term;
// Finalize buckets the log by term into one backing array. The log is a
// list of fixed-size blocks, so it never moves once written. Growing one
// slice per term instead copied each long list several times over and
// left part of each slice unused.
type Builder struct {
	shardID int
	bm25    BM25Params
	statsK  int
	docLens []uint32
	globals []int64
	dict    map[string]int32
	terms   []string // by first-seen index
	counts  []int32  // postings per term, by first-seen index
	// log holds the postings in the order Add met them, logBlock to a
	// block; logEnds[d] is the number logged up to and including
	// document d, which is how a posting's document is known.
	log      [][]logEntry
	logged   int
	logEnds  []int
	totalLen uint64
	sealed   bool
}

// logEntry is one logged posting: the first-seen index of its term and
// its tf.
type logEntry struct {
	term int32
	tf   uint32
}

// logBlock is how many postings one block of a Builder's log holds.
const logBlock = 1 << 16

// NewBuilder creates a Builder for shard shardID. statsK is the K used for
// K-th-score term statistics (use 10 to match the paper's P@10 focus).
func NewBuilder(shardID int, bm25 BM25Params, statsK int) *Builder {
	if statsK <= 0 {
		panic("index: statsK must be positive")
	}
	return &Builder{
		shardID: shardID,
		bm25:    bm25,
		statsK:  statsK,
		dict:    make(map[string]int32),
	}
}

// Add appends one document given its global ID, bag-of-words term
// frequencies, and total token length. Documents receive local ordinals in
// insertion order, so postings lists are document-ordered by construction.
func (b *Builder) Add(globalID int64, terms map[string]int, length int) {
	if b.sealed {
		panic("index: Add after Finalize")
	}
	b.docLens = append(b.docLens, uint32(length))
	b.globals = append(b.globals, globalID)
	b.totalLen += uint64(length)
	for text, tf := range terms {
		if tf <= 0 {
			continue
		}
		idx, ok := b.dict[text]
		if !ok {
			idx = int32(len(b.terms))
			b.dict[text] = idx
			b.terms = append(b.terms, text)
			b.counts = append(b.counts, 0)
		}
		b.counts[idx]++
		if b.logged%logBlock == 0 {
			b.log = append(b.log, make([]logEntry, 0, logBlock))
		}
		blk := &b.log[len(b.log)-1]
		*blk = append(*blk, logEntry{term: idx, tf: uint32(tf)})
		b.logged++
	}
	b.logEnds = append(b.logEnds, b.logged)
}

// AddText tokenizes raw text with Tokenize and adds the document.
func (b *Builder) AddText(globalID int64, text string) {
	tokens := Tokenize(text)
	terms := make(map[string]int, len(tokens))
	for _, tok := range tokens {
		terms[tok]++
	}
	b.Add(globalID, terms, len(tokens))
}

// Finalize seals the builder and computes IDF plus the full Table I/II
// term statistics for every term. The Builder must not be used afterwards.
//
// Terms are numbered in lexical order, not in the order Add first met
// them: Add ranges over a map, so first-seen order (and with it the
// encoded shard) would differ from one build of the same documents to
// the next. After the numbering, the terms' statistics, packed postings
// and block bounds are computed under par.For over fixed chunks of term
// IDs, each chunk writing only its own terms, so the shard is the same
// bytes on any number of cores.
func (b *Builder) Finalize() *Shard {
	if b.sealed {
		panic("index: Finalize called twice")
	}
	b.sealed = true
	n := len(b.docLens)
	if n == 0 {
		panic("index: Finalize on empty shard")
	}
	s := &Shard{
		ID:        b.shardID,
		NumDocs:   n,
		AvgDocLen: float64(b.totalLen) / float64(n),
		DocLens:   b.docLens,
		GlobalIDs: b.globals,
		dict:      b.dict,
		Terms:     make([]TermInfo, len(b.terms)),
		BM25:      b.bm25,
		StatsK:    b.statsK,
	}
	s.buildNorms()
	// Number the terms lexically, then bucket the log by term in one
	// stable counting pass: each term's postings keep the order Add
	// logged them in, which is document order.
	slices.Sort(b.terms)
	next := make([]int, len(b.terms)) // by first-seen index: the bucket's next free slot
	postings := make([][]Posting, len(b.terms))
	backing := make([]Posting, b.logged)
	off := 0
	for id, text := range b.terms {
		idx := b.dict[text]
		start := off
		off += int(b.counts[idx])
		postings[id] = backing[start:off:off]
		next[idx] = start
		b.dict[text] = int32(id)
		s.Terms[id].Text = text
	}
	doc, pos := 0, 0
	for _, blk := range b.log {
		for _, e := range blk {
			for pos == b.logEnds[doc] {
				doc++
			}
			backing[next[e.term]] = Posting{Doc: uint32(doc), TF: e.tf}
			next[e.term]++
			pos++
		}
	}
	b.log, b.logEnds, b.counts = nil, nil, nil
	chunks := (len(postings) + finalizeChunk - 1) / finalizeChunk
	par.For(chunks, func(c int) {
		var buf statsScratch
		for id := c * finalizeChunk; id < min((c+1)*finalizeChunk, len(postings)); id++ {
			ps, ti := postings[id], &s.Terms[id]
			var scores []float64
			ti.Stats, scores = computeTermStats(s, ps, b.statsK, &buf)
			ti.Packed, ti.Blocks = packPostings(ps, &buf.packed)
			fillBlockBounds(ti.Blocks, scores)
		}
	})
	s.SealIntegrity()
	return s
}

// finalizeChunk is how many consecutive term IDs one Finalize worker
// takes at a time: enough to amortize its scratch buffers, few enough
// that the Zipfian spread of list lengths evens out across workers.
const finalizeChunk = 256

// Tokenize lower-cases text and splits it into maximal runs of letters and
// digits. It is intentionally simple — the experiments use a synthetic
// corpus — but sufficient for indexing arbitrary user text files too.
func Tokenize(text string) []string {
	text = strings.ToLower(text)
	var tokens []string
	start := -1
	for i, r := range text {
		alnum := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if alnum && start < 0 {
			start = i
		}
		if !alnum && start >= 0 {
			tokens = append(tokens, text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		tokens = append(tokens, text[start:])
	}
	return tokens
}

// Seek returns the smallest index i in ps with ps[i].Doc >= doc, or
// len(ps) if none. Postings are document-ordered, so this is a binary
// search; the dynamic pruning strategies use it to skip ranges.
func Seek(ps []Posting, doc uint32) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= doc })
}

// Validate performs internal consistency checks and returns a descriptive
// error for the first violation found. Tests and the indexer binary call
// it after builds and after deserialization.
func (s *Shard) Validate() error {
	// Checksums first: when the shard is sealed, a corrupted region fails
	// with a localized *CorruptionError (which term, which block) before
	// the structural checks below can misattribute it as, say, an
	// out-of-order postings list.
	if s.integ != nil {
		if err := s.VerifyIntegrity(); err != nil {
			return err
		}
	}
	if s.NumDocs != len(s.DocLens) || s.NumDocs != len(s.GlobalIDs) {
		return fmt.Errorf("index: doc metadata length mismatch (%d docs, %d lens, %d globals)",
			s.NumDocs, len(s.DocLens), len(s.GlobalIDs))
	}
	if len(s.dict) != len(s.Terms) {
		return fmt.Errorf("index: dict has %d entries, %d terms", len(s.dict), len(s.Terms))
	}
	for text, idx := range s.dict {
		if int(idx) >= len(s.Terms) || s.Terms[idx].Text != text {
			return fmt.Errorf("index: dict entry %q points at wrong term", text)
		}
	}
	var docs, tfs [BlockSize]uint32
	for i := range s.Terms {
		ti := &s.Terms[i]
		if ti.Packed.N == 0 {
			return fmt.Errorf("index: term %q has empty postings", ti.Text)
		}
		// Geometry before any decode: DecodeBlockInto trusts the block
		// offsets and widths it is handed.
		if err := ti.checkPackedGeometry(); err != nil {
			return err
		}
		prev := int64(-1)
		for bi := range ti.Blocks {
			n := ti.DecodeBlockInto(bi, &docs, &tfs)
			for j := 0; j < n; j++ {
				if int64(docs[j]) <= prev {
					return fmt.Errorf("index: term %q postings out of order", ti.Text)
				}
				if docs[j] >= uint32(s.NumDocs) {
					return fmt.Errorf("index: term %q references doc %d of %d", ti.Text, docs[j], s.NumDocs)
				}
				if tfs[j] == 0 {
					return fmt.Errorf("index: term %q has zero tf posting", ti.Text)
				}
				prev = int64(docs[j])
			}
		}
		st := ti.Stats
		if st.PostingLen != ti.Packed.N {
			return fmt.Errorf("index: term %q stats posting length %d != %d", ti.Text, st.PostingLen, ti.Packed.N)
		}
		if math.IsNaN(st.IDF) || st.IDF < 0 {
			return fmt.Errorf("index: term %q has invalid idf %v", ti.Text, st.IDF)
		}
		if err := s.validateBlocks(ti); err != nil {
			return err
		}
	}
	return nil
}
