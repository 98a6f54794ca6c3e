// Package search implements top-K query evaluation over an index shard:
// exhaustive document-at-a-time (DAAT) scoring, the oracle, plus MaxScore
// (Turtle & Flood), the one dynamic-pruning evaluator the paper names as
// the reason a query's service time is hard to predict from posting-list
// length alone (Section III-C), and Anytime, exhaustive scoring under a
// deadline. Every evaluator reports ExecStats — the documents scored and
// postings traversed — which drive the cluster simulator's service-time
// cost model and the C_RES metric.
//
// Postings are stored bit-packed in 64-posting blocks (internal/index);
// evaluators walk them through cursors that decode one block at a
// time into fixed scratch. Exhaustive and Anytime visit exactly the
// postings their flat-slice ancestors visited. MaxScore — the strategy the
// engine, the indexer and the servers run — does not: it uses two things
// the index computed at build time and Shard.Validate re-derives at load
// time. Its threshold starts at the largest K-th best single-term score
// among the query's terms (TermStats.KthScore) instead of climbing there
// from nothing, and once one list is essential it steps over every block
// of that list whose exact maximum (Block.Max) cannot beat the threshold,
// without decoding it. Both only rule out documents that cannot be in the
// top-K, so the hits stay bit-identical to Exhaustive's; the work does
// not, and ExecStats reports the work that was done — which is what the
// simulator's service times and the latency predictor's labels are made
// of.
package search

import (
	"math"
	"sync"

	"cottage/internal/index"
)

// Hit is one scored document in a shard's response.
type Hit struct {
	Doc   int64 // collection-wide document ID
	Local uint32
	Score float64
}

// ExecStats quantifies the work one query evaluation performed. The cost
// model converts it to CPU cycles (internal/cluster).
type ExecStats struct {
	// PostingsTraversed counts cursor advancements, including seeks
	// (a seek is one advancement: postings are binary-searched) and
	// blocks MaxScore stepped over on Block.Max (one each: a Block read
	// and a compare cost about what a posting does, and none of the
	// block's postings is decoded).
	PostingsTraversed int
	// DocsScored counts candidate documents whose score was computed
	// (fully or far enough to be rejected). Documents in a skipped block
	// were not scored and are not counted.
	DocsScored int
	// HeapInserts counts top-K heap updates. A MaxScore threshold that
	// starts at a K-th score keeps the early low scorers out of the heap,
	// so it inserts fewer documents than Exhaustive for the same hits.
	HeapInserts int
	// TermsMatched is how many of the query's terms exist in the shard.
	TermsMatched int
	// BlocksSkipped counts the blocks of the essential list MaxScore
	// stepped over on their exact maximum, each also one
	// PostingsTraversed. Not a cost-model input — what a skip costs is
	// already in PostingsTraversed.
	BlocksSkipped int
}

// Result is a shard's answer to a query: its local top-K and the work done.
type Result struct {
	Hits  []Hit // descending score, ties broken by ascending doc ID
	Stats ExecStats
	// Terminated reports that the evaluation stopped at a deadline before
	// visiting every promising region (only Anytime sets it). The hits are
	// still exactly scored; the set may just be incomplete.
	Terminated bool
	// ScoreBound is the quality certificate: an upper bound on the true
	// k-th best score in the shard. When Terminated is false the result is
	// exact and ScoreBound equals the k-th returned score (or 0 with fewer
	// than k matches); when true, no missing document can beat it.
	ScoreBound float64
}

// Strategy names an evaluation algorithm.
type Strategy int

const (
	// StrategyExhaustive scores every posting of every query term.
	StrategyExhaustive Strategy = iota
	// StrategyMaxScore skips non-essential lists whose upper bounds
	// cannot lift a document into the top-K.
	StrategyMaxScore
)

// String returns the strategy's name.
func (st Strategy) String() string {
	switch st {
	case StrategyExhaustive:
		return "exhaustive"
	case StrategyMaxScore:
		return "maxscore"
	default:
		return "unknown"
	}
}

// ParseStrategy maps a strategy name back to its Strategy.
func ParseStrategy(name string) (Strategy, bool) {
	for _, st := range []Strategy{StrategyExhaustive, StrategyMaxScore} {
		if st.String() == name {
			return st, true
		}
	}
	return 0, false
}

// Eval dispatches to the named strategy.
func Eval(st Strategy, s *index.Shard, terms []string, k int) Result {
	switch st {
	case StrategyExhaustive:
		return Exhaustive(s, terms, k)
	case StrategyMaxScore:
		return MaxScore(s, terms, k)
	default:
		panic("search: unknown strategy")
	}
}

// cursor walks one term's postings, decoding the bit-packed blocks
// lazily: whichever block holds the cursor's position is unpacked into
// the cursor-owned scratch arrays, and stays cached until the position
// leaves it. All movement is through pos; doc/posting decode on demand.
type cursor struct {
	ti   *index.TermInfo
	pos  int // global posting index
	bi   int // block currently decoded into scratch, -1 if none
	idx  int // position in the cursorSet slab (term-appearance order)
	docs [index.BlockSize]uint32
	tfs  [index.BlockSize]uint32
}

func (c *cursor) exhausted() bool { return c.pos >= c.ti.Len() }

// load makes block bi the decoded block. The hit check stays in the
// (inlinable) caller-facing methods; the decode itself is kept out of
// line so doc/posting compile down to a compare plus an array read on
// the cached-block path — the overwhelmingly common one.
func (c *cursor) load(bi int) {
	if c.bi != bi {
		c.loadSlow(bi)
	}
}

//go:noinline
func (c *cursor) loadSlow(bi int) {
	c.ti.DecodeBlockInto(bi, &c.docs, &c.tfs)
	c.bi = bi
}

// loadPos decodes the block holding the current position.
//
//go:noinline
func (c *cursor) loadPos() {
	c.loadSlow(c.pos / index.BlockSize)
}

func (c *cursor) doc() uint32 {
	if c.pos/index.BlockSize != c.bi {
		c.loadPos()
	}
	return c.docs[c.pos%index.BlockSize]
}

func (c *cursor) posting() index.Posting {
	if c.pos/index.BlockSize != c.bi {
		c.loadPos()
	}
	return index.Posting{Doc: c.docs[c.pos%index.BlockSize], TF: c.tfs[c.pos%index.BlockSize]}
}

// tf reads the term frequency at the cursor position. The position's
// block must already be decoded — doc() and a successful seek() both
// guarantee that — which is what lets this inline where posting()'s
// reload check would not.
func (c *cursor) tf() uint32 { return c.tfs[c.pos%index.BlockSize] }

// scoreBlock decodes the block holding the current position and scores
// its postings, from the position to the block's end, into scores (lanes
// before the position are left stale: a forward-only cursor never reads
// them). Scoring the block whole keeps its divides out of the
// candidate-by-candidate loop, where each would stall the comparison
// that follows it.
func (c *cursor) scoreBlock(s *index.Shard, scores *[index.BlockSize]float64) {
	c.loadPos()
	s.ScoreBlock(c.ti, &c.docs, &c.tfs, c.pos%index.BlockSize, c.blockLen(c.bi), scores)
}

// blockLen is block bi's live posting count.
func (c *cursor) blockLen(bi int) int {
	n := c.ti.Len() - bi*index.BlockSize
	if n > index.BlockSize {
		n = index.BlockSize
	}
	return n
}

// shallowBlock returns the index of the block containing the first
// posting with Doc >= doc, searching forward from the cursor's current
// block, or -1 when the list has no such posting. It reads only the
// block-max overlay — no payload is decoded.
func (c *cursor) shallowBlock(doc uint32) int {
	blocks := c.ti.Blocks
	bi := c.pos / index.BlockSize
	if bi >= len(blocks) {
		return -1
	}
	if blocks[bi].MaxDoc >= doc {
		return bi
	}
	lo, hi := bi+1, len(blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if blocks[mid].MaxDoc < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(blocks) {
		return -1
	}
	return lo
}

// seek advances the cursor to the first posting with Doc >= doc and
// reports whether a posting at exactly doc exists. Forward-only, like
// the flat-slice Seek it replaces: a target at or before the current
// document leaves the cursor in place.
func (c *cursor) seek(doc uint32) bool {
	if c.exhausted() {
		return false
	}
	if d := c.doc(); d >= doc {
		return d == doc
	}
	bi := c.shallowBlock(doc)
	if bi < 0 {
		c.pos = c.ti.Len()
		return false
	}
	i := 0
	if bi == c.pos/index.BlockSize {
		i = c.pos % index.BlockSize // within the current block: scan forward
	} else {
		c.pos = bi * index.BlockSize
	}
	c.load(bi)
	// The block's MaxDoc >= doc, so the scan stops inside the live span.
	for c.docs[i] < doc {
		i++
	}
	c.pos = bi*index.BlockSize + i
	return c.docs[i] == doc
}

// reposition places the cursor at the first posting with Doc >= doc,
// regardless of its current position (Anytime visits document ranges out
// of order, so cursors move backward between ranges).
func (c *cursor) reposition(doc uint32) {
	blocks := c.ti.Blocks
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if blocks[mid].MaxDoc < doc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(blocks) {
		c.pos = c.ti.Len()
		return
	}
	c.load(lo)
	i := 0
	for c.docs[i] < doc {
		i++
	}
	c.pos = lo*index.BlockSize + i
}

// cursorSet is the pooled per-evaluation cursor scratch: one contiguous
// slab of cursors plus the pointer slice the evaluators walk. Recycling
// it through a sync.Pool makes steady-state query evaluation stop
// allocating a map, a slice and k cursors per (query, shard) pair.
type cursorSet struct {
	slab []cursor
	cs   []*cursor
	// MaxScore's per-query scratch, one entry per matched term whatever
	// their number. contrib is slab-parallel: each term's contribution at
	// the current candidate, so an accepted candidate's canonical
	// (slab-order) score is a re-sum of m floats instead of a re-lookup of
	// m postings; it is all zero between candidates, and touched lists the
	// entries the current one wrote. prefix and cur are parallel to the
	// sorted cs: prefix[i] is the summed MaxScore of cs[0..i], cur[i] the
	// document cs[i] stands on (endDoc once exhausted).
	contrib []float64
	touched []int
	prefix  []float64
	cur     []uint32
	// scores is slab-parallel too: the scores of the block an essential
	// cursor stands in (see cursor.scoreBlock).
	scores [][index.BlockSize]float64
}

// endDoc is the current document of an exhausted cursor in cursorSet.cur.
// Real documents index Shard.DocLens, so none reaches it.
const endDoc = ^uint32(0)

var cursorPool = sync.Pool{New: func() any { return new(cursorSet) }}

// openCursorSet resolves terms against the shard dictionary, dropping
// duplicates and absent terms (duplicates are detected by TermInfo
// identity — equal terms resolve to the same dictionary entry — so no
// map is needed for the handful of terms real queries carry). The set
// comes from a pool; the caller must put() it back once the cursors are
// dead, and must not retain them past that point.
func openCursorSet(s *index.Shard, terms []string) *cursorSet {
	x := cursorPool.Get().(*cursorSet)
	slab := x.slab[:0]
	for _, t := range terms {
		ti, ok := s.Lookup(t)
		if !ok {
			continue
		}
		dup := false
		for i := range slab {
			if slab[i].ti == ti {
				dup = true
				break
			}
		}
		if !dup {
			slab = append(slab, cursor{})
			c := &slab[len(slab)-1]
			c.ti, c.pos, c.bi = ti, 0, -1
			c.idx = len(slab) - 1
		}
	}
	// Pointers are taken only after the slab stops growing.
	cs := x.cs[:0]
	for i := range slab {
		cs = append(cs, &slab[i])
	}
	m := len(slab)
	if cap(x.contrib) < m {
		x.contrib = make([]float64, m)
		x.touched = make([]int, m)
		x.prefix = make([]float64, m)
		x.cur = make([]uint32, m)
		x.scores = make([][index.BlockSize]float64, m)
	}
	x.slab, x.cs = slab, cs
	x.contrib, x.touched, x.prefix, x.cur, x.scores = x.contrib[:m], x.touched[:0], x.prefix[:m], x.cur[:m], x.scores[:m]
	return x
}

func (x *cursorSet) put() { cursorPool.Put(x) }

// Exhaustive evaluates the query by a full multiway DAAT merge: every
// posting of every matching term is visited. This is the paper's baseline
// "exhaustive search" behaviour at a single ISN.
func Exhaustive(s *index.Shard, terms []string, k int) Result {
	set := openCursorSet(s, terms)
	defer set.put()
	cs := set.cs
	var st ExecStats
	st.TermsMatched = len(cs)
	if len(cs) == 0 || k <= 0 {
		return Result{Stats: st}
	}
	tk := newTopK(k)
	for {
		// Find the minimum current document among live cursors.
		minDoc := uint32(0)
		live := false
		for _, c := range cs {
			if c.exhausted() {
				continue
			}
			if !live || c.doc() < minDoc {
				minDoc = c.doc()
				live = true
			}
		}
		if !live {
			break
		}
		score := 0.0
		for _, c := range cs {
			if !c.exhausted() && c.doc() == minDoc {
				score += s.TermScore(c.ti, index.Posting{Doc: minDoc, TF: c.tf()})
				c.pos++
				st.PostingsTraversed++
			}
		}
		st.DocsScored++
		if tk.offer(minDoc, score) {
			st.HeapInserts++
		}
	}
	return Result{Hits: tk.hits(s), Stats: st}
}

// MaxScore evaluates the query with the MaxScore optimization: terms are
// ordered by their maximum possible contribution, and once the top-K
// threshold exceeds the combined upper bound of the lowest-impact lists,
// those lists stop producing candidates and are only probed for documents
// surfaced by the essential lists. For k <= Shard.StatsK the threshold
// does not start empty but at the best KthScore among the query's terms,
// and the last essential list's blocks are skipped on Block.Max (see
// below); hits and score bits are Exhaustive's either way.
func MaxScore(s *index.Shard, terms []string, k int) Result {
	set := openCursorSet(s, terms)
	defer set.put()
	cs := set.cs
	var st ExecStats
	st.TermsMatched = len(cs)
	if len(cs) == 0 || k <= 0 {
		return Result{Stats: st}
	}
	// Ascending by max score: cs[0] is the least impactful list.
	// Insertion sort: a query carries a handful of terms, and the
	// reflection setup sort.Slice pays per call is visible at per-query
	// evaluation rates.
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i
		for j > 0 && cs[j-1].ti.Stats.MaxScore > c.ti.Stats.MaxScore {
			cs[j] = cs[j-1]
			j--
		}
		cs[j] = c
	}
	m := len(cs)
	prefix, contrib, touched, cur := set.prefix, set.contrib, set.touched, set.cur
	acc := 0.0
	for i, c := range cs {
		acc += c.ti.Stats.MaxScore
		prefix[i] = acc
	}
	tk := newTopK(k)
	// theta is the pruning threshold: the heap's, or the floor the index
	// already knows while the heap's is below it. At least StatsK documents
	// score a term's KthScore or more, so for k <= StatsK none scoring less
	// is in the top-K; the floor is one ulp under the largest KthScore so
	// that a document tying it still enters (DESIGN.md §17).
	theta := tk.threshold()
	if k <= s.StatsK {
		for _, c := range cs {
			if ts := &c.ti.Stats; ts.PostingLen >= s.StatsK {
				theta = max(theta, math.Nextafter(ts.KthScore, math.Inf(-1)))
			}
		}
	}
	// cs[:first] are the non-essential lists: even together they cannot
	// lift a document past theta. The floor is below a matched term's
	// MaxScore (Shard.Validate holds KthScore to a posting's score), so at
	// least one list starts essential.
	first := 0
	for first < m && prefix[first] <= theta {
		first++
	}
	// Candidates come from the essential lists cs[first:]. Whichever block
	// an essential cursor stands in is decoded and scored whole (scoreBlock),
	// so producing a candidate costs loads, not divides. While several lists
	// are essential they are merged on cur, which is refreshed as cursors
	// advance; a cursor that steps into the next block only sets stale, and
	// that block is decoded when — if — the next candidate is looked for, as
	// lazily as cursor.doc() would. Once exactly one list is essential
	// (always, for a one-term query; for most others, as soon as theta has
	// risen, or at once when the index's floor is past the other lists'
	// bounds) its scored block is scanned directly, and [bj, bend) is the
	// span of the block not yet offered as candidates; a block the scan
	// enters at its first posting is tested on its exact Block.Max first and
	// stepped over undecoded when nothing in it can beat theta. first only
	// ever rises, so the merge hands over to the scan at most once.
	stale := true
	bj, bend := 0, 0
	for first < m {
		var doc uint32
		score := 0.0
		if first == m-1 {
			c := cs[first]
			scores := &set.scores[c.idx]
			// A document whose score plus full credit from every other
			// list cannot beat theta is the probe loop's first rejection.
			rest := 0.0
			if first > 0 {
				rest = prefix[first-1]
			}
			if bj == bend {
				if c.pos%index.BlockSize == 0 {
					// Whole blocks of such documents are stepped over on
					// Block.Max, each charged as one posting traversed: a
					// Block read and a compare, nothing decoded or scored. A
					// hand-over from the merge in mid-block scans that block
					// out and tests from the next boundary on.
					blocks := c.ti.Blocks
					from := c.pos / index.BlockSize
					bi := from
					for bi < len(blocks) && blocks[bi].Max+rest <= theta {
						bi++
					}
					st.PostingsTraversed += bi - from
					st.BlocksSkipped += bi - from
					c.pos = min(bi*index.BlockSize, c.ti.Len())
				}
				if c.exhausted() {
					break
				}
				if c.pos/index.BlockSize != c.bi {
					c.scoreBlock(s, scores)
				}
				bj, bend = c.pos%index.BlockSize, c.blockLen(c.bi)
			}
			// Runs of them within the block are stepped over here, counted
			// as traversed and scored.
			j := bj
			for j < bend && scores[j]+rest <= theta {
				j++
			}
			survivor := j < bend
			if survivor {
				j++ // traversed and scored like the ones before it
			}
			c.pos += j - bj
			st.PostingsTraversed += j - bj
			st.DocsScored += j - bj
			bj = j
			if !survivor {
				continue
			}
			doc, score = c.docs[j-1], scores[j-1]
			contrib[c.idx] = score
			touched = append(touched, c.idx)
		} else {
			if stale {
				for i := first; i < m; i++ {
					c := cs[i]
					if c.exhausted() {
						cur[i] = endDoc
					} else if c.pos/index.BlockSize != c.bi {
						c.scoreBlock(s, &set.scores[c.idx])
						cur[i] = c.docs[c.pos%index.BlockSize]
					}
				}
				stale = false
			}
			// Candidate: min doc among essential lists.
			doc = cur[first]
			for _, d := range cur[first+1:] {
				doc = min(doc, d)
			}
			if doc == endDoc {
				break
			}
			// Credit the essential lists standing on doc, recording per-term
			// contributions: candidates are strictly increasing and probes
			// seek exactly to the candidate, so an accepted document has had
			// every list that contains it credited — its canonical score is
			// the slab-order re-sum of contrib, no posting re-lookup needed.
			for i := first; i < m; i++ {
				if cur[i] != doc {
					continue
				}
				c := cs[i]
				v := set.scores[c.idx][c.pos%index.BlockSize]
				score += v
				contrib[c.idx] = v
				touched = append(touched, c.idx)
				c.pos++
				st.PostingsTraversed++
				switch {
				case c.exhausted():
					cur[i] = endDoc
				case c.pos%index.BlockSize == 0:
					stale = true
				default:
					cur[i] = c.docs[c.pos%index.BlockSize]
				}
			}
			st.DocsScored++
		}
		// Probe non-essential lists from most to least impactful,
		// abandoning the document once even full credit from the
		// remaining lists cannot beat the threshold.
		ok := true
		for j := first - 1; j >= 0; j-- {
			if score+prefix[j] <= theta {
				ok = false
				break
			}
			c := cs[j]
			if c.seek(doc) {
				v := s.TermScore(c.ti, index.Posting{Doc: doc, TF: c.tf()})
				score += v
				contrib[c.idx] = v
				touched = append(touched, c.idx)
			}
			st.PostingsTraversed++
		}
		if ok && score > theta {
			// Re-sum in slab (term-appearance) order so ties and float
			// ordering match the exhaustive evaluator exactly: the same
			// contribution values added in the same order, with exact
			// +0.0 identities for absent terms.
			full := 0.0
			for _, v := range contrib {
				full += v
			}
			if tk.offer(doc, full) {
				st.HeapInserts++
				// The heap's threshold moved: once past the floor it is
				// theta, and the essential boundary moves with it.
				theta = max(theta, tk.threshold())
				for first < m && prefix[first] <= theta {
					first++
				}
			}
		}
		for _, i := range touched {
			contrib[i] = 0
		}
		touched = touched[:0]
	}
	return Result{Hits: tk.hits(s), Stats: st}
}

// topK is a fixed-capacity min-heap of (doc, score) keeping the best k.
// Ties on score are broken toward smaller document IDs, deterministically.
// The heap is a hand-inlined slice heap — container/heap's interface{}
// Push/Pop boxed every Hit and kept the comparisons behind interface
// dispatch on what is the hottest loop of query evaluation.
type topK struct {
	k int
	h []Hit // min-heap, worst hit at h[0]
}

// newTopK allocates the heap at full capacity up front, so offer never
// grows the slice: after this call the top-K path is allocation-free.
func newTopK(k int) *topK { return &topK{k: k, h: make([]Hit, 0, k)} }

// worseHit reports whether a should be evicted before b (min-heap order):
// lower score first; among equal scores, the larger doc ID goes first.
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Local > b.Local
}

// threshold is the score a new document must strictly exceed to enter a
// full heap; -inf semantics are represented by a large negative number so
// zero-scored documents still enter an unfilled heap.
func (t *topK) threshold() float64 {
	if len(t.h) < t.k {
		return -1
	}
	return t.h[0].Score
}

// offer inserts the document if it qualifies; reports whether the heap
// changed.
func (t *topK) offer(doc uint32, score float64) bool {
	if len(t.h) < t.k {
		t.h = append(t.h, Hit{Local: doc, Score: score})
		t.siftUp(len(t.h) - 1)
		return true
	}
	min := t.h[0]
	if score > min.Score || (score == min.Score && doc < min.Local) {
		t.h[0] = Hit{Local: doc, Score: score}
		t.siftDown(0)
		return true
	}
	return false
}

func (t *topK) siftUp(i int) {
	h := t.h
	for i > 0 {
		p := (i - 1) / 2
		if !worseHit(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (t *topK) siftDown(i int) {
	h := t.h
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && worseHit(h[r], h[l]) {
			m = r
		}
		if !worseHit(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// hits drains the heap into a descending-score slice with global doc IDs
// resolved.
func (t *topK) hits(s *index.Shard) []Hit {
	out := make([]Hit, len(t.h))
	copy(out, t.h)
	// Descending score, ascending local doc on ties; insertion sort for
	// the same per-query reflection-cost reason as the cursor orderings
	// (k is small).
	for i := 1; i < len(out); i++ {
		h := out[i]
		j := i
		for j > 0 && (out[j-1].Score < h.Score ||
			(out[j-1].Score == h.Score && out[j-1].Local > h.Local)) {
			out[j] = out[j-1]
			j--
		}
		out[j] = h
	}
	for i := range out {
		out[i].Doc = s.GlobalDoc(out[i].Local)
	}
	return out
}
