package search

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"cottage/internal/index"
	"cottage/internal/race"
	"cottage/internal/xrand"
)

// Reference evaluators: the algorithms of search.go written the slow,
// obvious way — flat posting slices from AllPostings, binary-search seeks,
// a sorted-slice top-K, and every score from the reference formula
// BM25Params.Score. They share no code with the cursors, the scored
// blocks or the normalisation table, and they count work exactly as the
// cost model defines it, so "the fast evaluator visits the same postings"
// is an assertion here and not an inference from figures.

type refList struct {
	ps   []index.Posting
	idf  float64
	max  float64
	slab int // term-appearance index: the canonical summation order
	pos  int
}

func (l *refList) done() bool  { return l.pos >= len(l.ps) }
func (l *refList) doc() uint32 { return l.ps[l.pos].Doc }

func (l *refList) score(s *index.Shard) float64 { return l.scoreAt(s, l.pos) }

func (l *refList) scoreAt(s *index.Shard, i int) float64 {
	p := l.ps[i]
	return s.BM25.Score(l.idf, p.TF, s.DocLens[p.Doc], s.AvgDocLen)
}

// seek is forward-only: a target at or before the current document
// leaves the list in place.
func (l *refList) seek(doc uint32) bool {
	if l.done() {
		return false
	}
	if l.doc() < doc {
		l.pos += index.Seek(l.ps[l.pos:], doc)
	}
	return !l.done() && l.doc() == doc
}

// refOpen resolves terms in appearance order, dropping absent terms and
// repeats.
func refOpen(s *index.Shard, terms []string) []*refList {
	var lists []*refList
	seen := map[string]bool{}
	for _, t := range terms {
		ti, ok := s.Lookup(t)
		if !ok || seen[t] {
			continue
		}
		seen[t] = true
		lists = append(lists, &refList{
			ps: ti.AllPostings(), idf: ti.Stats.IDF, max: ti.Stats.MaxScore, slab: len(lists),
		})
	}
	return lists
}

// refTopK keeps the best k hits sorted best-first: higher score, then
// smaller document.
type refTopK struct {
	k    int
	best []Hit
}

func (t *refTopK) threshold() float64 {
	if len(t.best) < t.k {
		return -1
	}
	return t.best[len(t.best)-1].Score
}

func (t *refTopK) offer(doc uint32, score float64) bool {
	if len(t.best) == t.k {
		worst := t.best[len(t.best)-1]
		if !(score > worst.Score || (score == worst.Score && doc < worst.Local)) {
			return false
		}
		t.best = t.best[:len(t.best)-1]
	}
	i := len(t.best)
	t.best = append(t.best, Hit{})
	for i > 0 && (t.best[i-1].Score < score || (t.best[i-1].Score == score && t.best[i-1].Local > doc)) {
		t.best[i] = t.best[i-1]
		i--
	}
	t.best[i] = Hit{Local: doc, Score: score}
	return true
}

func (t *refTopK) hits(s *index.Shard) []Hit {
	for i := range t.best {
		t.best[i].Doc = s.GlobalDoc(t.best[i].Local)
	}
	return t.best
}

func refExhaustive(s *index.Shard, terms []string, k int) Result {
	lists := refOpen(s, terms)
	st := ExecStats{TermsMatched: len(lists)}
	if len(lists) == 0 || k <= 0 {
		return Result{Stats: st}
	}
	tk := &refTopK{k: k}
	for {
		minDoc, live := uint32(0), false
		for _, l := range lists {
			if !l.done() && (!live || l.doc() < minDoc) {
				minDoc, live = l.doc(), true
			}
		}
		if !live {
			break
		}
		score := 0.0
		for _, l := range lists {
			if !l.done() && l.doc() == minDoc {
				score += l.score(s)
				l.pos++
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

// refSortByMax orders lists ascending by max score, stably, as the
// evaluators' insertion sorts do.
func refSortByMax(lists []*refList) {
	for i := 1; i < len(lists); i++ {
		l := lists[i]
		j := i
		for j > 0 && lists[j-1].max > l.max {
			lists[j] = lists[j-1]
			j--
		}
		lists[j] = l
	}
}

// refMaxScoreTrace says which of the algorithm's corners an evaluation
// went through, so the battery can insist it covered them.
type refMaxScoreTrace struct {
	// rescued counts accepted documents whose essential-list score alone
	// did not beat the threshold: they survive only through a probed list.
	rescued int
	// stoppedEarly: every list became non-essential while an essential
	// one still had postings left.
	stoppedEarly bool
	// primed: the threshold started at a list's K-th score, not at -1.
	primed bool
	// scanFrom is the posting index the last essential list stood on when it
	// became the only one (0 for a list that was alone from the start), -1
	// if the evaluation ended with several lists still essential.
	scanFrom int
}

// midBlockHandOver: the multi-list merge handed over to the one-list scan
// inside a block, where no block can be skipped until the next boundary.
func (tr refMaxScoreTrace) midBlockHandOver() bool {
	return tr.scanFrom > 0 && tr.scanFrom%index.BlockSize != 0
}

// refScores is every posting's score, by brute force.
func refScores(s *index.Shard, l *refList) []float64 {
	out := make([]float64, len(l.ps))
	for i := range l.ps {
		out[i] = l.scoreAt(s, i)
	}
	return out
}

// refMaxScore is the evaluator as it runs. The two things it takes from
// the index — where the threshold starts and which blocks of the last
// essential list it steps over — are re-derived here from the flat
// postings: TermStats.KthScore and Block.Max are not read.
func refMaxScore(s *index.Shard, terms []string, k int) (Result, refMaxScoreTrace) {
	return refMaxScoreWith(s, terms, k, true, true)
}

// refMaxScoreWith can leave either out; with both off it is the evaluator
// of the parent commit, which started at -1 and scanned every block.
func refMaxScoreWith(s *index.Shard, terms []string, k int, prime, skip bool) (Result, refMaxScoreTrace) {
	tr := refMaxScoreTrace{scanFrom: -1}
	lists := refOpen(s, terms)
	st := ExecStats{TermsMatched: len(lists)}
	if len(lists) == 0 || k <= 0 {
		return Result{Stats: st}, tr
	}
	refSortByMax(lists)
	m := len(lists)
	prefix := make([]float64, m)
	acc := 0.0
	for i, l := range lists {
		acc += l.max
		prefix[i] = acc
	}
	tk := &refTopK{k: k}
	// The floor: with k <= StatsK, a list of at least StatsK postings has
	// that many documents scoring its StatsK-th best or more, so the top-K
	// holds nothing below that — one ulp lower, so that a tie still enters.
	theta := tk.threshold()
	if prime && k <= s.StatsK {
		for _, l := range lists {
			if len(l.ps) < s.StatsK {
				continue
			}
			sc := refScores(s, l)
			sort.Sort(sort.Reverse(sort.Float64Slice(sc)))
			theta = max(theta, math.Nextafter(sc[s.StatsK-1], math.Inf(-1)))
			tr.primed = true
		}
	}
	first := 0
	for first < m && prefix[first] <= theta {
		first++
	}
	var lastScores []float64 // of lists[m-1], once it is the only essential list
	for first < m {
		if l := lists[m-1]; first == m-1 {
			if tr.scanFrom < 0 {
				tr.scanFrom = l.pos
				lastScores = refScores(s, l)
			}
			rest := 0.0
			if first > 0 {
				rest = prefix[first-1]
			}
			// At a block boundary, blocks whose best posting cannot beat
			// theta even with full credit from every other list are stepped
			// over, one posting's worth of traversal each.
			for skip && !l.done() && l.pos%index.BlockSize == 0 {
				end := min(l.pos+index.BlockSize, len(l.ps))
				blockMax := 0.0
				for _, v := range lastScores[l.pos:end] {
					blockMax = max(blockMax, v)
				}
				if blockMax+rest > theta {
					break
				}
				l.pos = end
				st.PostingsTraversed++
				st.BlocksSkipped++
			}
		}
		minDoc, live := uint32(0), false
		for _, l := range lists[first:] {
			if !l.done() && (!live || l.doc() < minDoc) {
				minDoc, live = l.doc(), true
			}
		}
		if !live {
			break
		}
		contrib := make([]float64, m)
		score := 0.0
		for _, l := range lists[first:] {
			if !l.done() && l.doc() == minDoc {
				v := l.score(s)
				score += v
				contrib[l.slab] = v
				l.pos++
				st.PostingsTraversed++
			}
		}
		st.DocsScored++
		essential := score
		ok := true
		for j := first - 1; j >= 0; j-- {
			if score+prefix[j] <= theta {
				ok = false
				break
			}
			if l := lists[j]; l.seek(minDoc) {
				v := l.score(s)
				score += v
				contrib[l.slab] = v
			}
			st.PostingsTraversed++
		}
		if ok && score > theta {
			full := 0.0
			for _, v := range contrib {
				full += v
			}
			if tk.offer(minDoc, full) {
				st.HeapInserts++
				if essential <= theta {
					tr.rescued++
				}
			}
		}
		theta = max(theta, tk.threshold())
		for first < m && prefix[first] <= theta {
			first++
		}
	}
	if first == m {
		for _, l := range lists {
			if !l.done() {
				tr.stoppedEarly = true
			}
		}
	}
	return Result{Hits: tk.hits(s), Stats: st}, tr
}

// costStats is the part of ExecStats the cluster cost model reads, and the
// skip count that explains it.
func costStats(st ExecStats) [5]int {
	return [5]int{st.PostingsTraversed, st.DocsScored, st.HeapInserts, st.TermsMatched, st.BlocksSkipped}
}

// checkAgainstReference runs one query through every strategy. All must
// return the reference's hits bit for bit; Exhaustive and MaxScore must
// also report the reference's work counts. It returns the reference
// MaxScore's result and trace.
func checkAgainstReference(t *testing.T, s *index.Shard, q []string, k int) (Result, refMaxScoreTrace) {
	t.Helper()
	ex := refExhaustive(s, q, k)
	ms, tr := refMaxScore(s, q, k)
	if !hitsIdentical(ex.Hits, ms.Hits) {
		t.Fatalf("%v k=%d: the reference evaluators disagree:\n ex=%v\n ms=%v", q, k, ex.Hits, ms.Hits)
	}
	for _, c := range []struct {
		name string
		got  Result
		want *Result // work counts, where the strategy has a reference
	}{
		{"exhaustive", Exhaustive(s, q, k), &ex},
		{"maxscore", MaxScore(s, q, k), &ms},
		{"anytime", Anytime(s, q, k, nil), nil},
	} {
		if !hitsIdentical(c.got.Hits, ex.Hits) {
			t.Fatalf("%s %v k=%d: hits differ from the reference:\n got=%v\nwant=%v", c.name, q, k, c.got.Hits, ex.Hits)
		}
		if c.want != nil && costStats(c.got.Stats) != costStats(c.want.Stats) {
			t.Fatalf("%s %v k=%d: stats %+v, reference %+v", c.name, q, k, c.got.Stats, c.want.Stats)
		}
	}
	return ms, tr
}

// cornerLens are the corner shard's exact list lengths: a lone posting, two
// lists shorter than StatsK (whose KthScore is therefore no K-th score), a
// tail block one short of full, one full block, a full block plus one, two
// plus one.
var cornerLens = []int{1, 5, 9, 63, 64, 65, 129}

// buildCornerShard is the hand-made half of the battery: lists of exactly
// cornerLens postings, and a term whose 30 postings all tie at its maximum
// score.
func buildCornerShard(tb testing.TB) *index.Shard {
	tb.Helper()
	const docs, ties = 400, 31
	rng := xrand.New(41)
	b := index.NewBuilder(7, index.DefaultBM25(), 10)
	e := 0 // ordinal among the documents that are not ties
	for d := 0; d < docs; d++ {
		if d%13 == 5 {
			// Same tf in documents of the same length: every posting
			// scores the term's maximum.
			b.Add(int64(9000+d), map[string]int{"tie": 2}, 12)
			continue
		}
		terms := map[string]int{}
		for _, l := range cornerLens {
			// Spread each list over the whole shard.
			if e*l/(docs-ties) != (e+1)*l/(docs-ties) {
				terms[fmt.Sprintf("len%d", l)] = 1 + rng.Intn(4)
			}
		}
		if e%2 == 0 {
			terms["common"] = 1 + rng.Intn(3)
		}
		e++
		b.Add(int64(9000+d), terms, 12+rng.Intn(40))
	}
	s := b.Finalize()
	for _, l := range cornerLens {
		if ti, ok := s.Lookup(fmt.Sprintf("len%d", l)); !ok || ti.Len() != l {
			tb.Fatalf("corner shard: list len%d is not %d postings long", l, l)
		}
	}
	ti, _ := s.Lookup("tie")
	if ti.Stats.NumMaxScore != ti.Len() || ti.Len() < 30 {
		tb.Fatalf("corner shard: %d of tie's %d postings attain its max", ti.Stats.NumMaxScore, ti.Len())
	}
	return s
}

func cornerQueries() [][]string {
	return [][]string{
		{"len1"}, {"len5"}, {"len9"}, {"len63"}, {"len64"}, {"len65"}, {"len129"}, {"common"}, {"tie"},
		{"len1", "len129"}, {"len64", "len65"}, {"len63", "common"}, {"len1", "len5", "len9"},
		{"tie", "common"}, {"tie", "len1"}, {"common", "tie", "len129"}, {"len9", "common"},
		{"len65", "len65"}, {"absent"}, {"absent", "len64", "absent"}, {"len129", "common", "len129"},
		{"len1", "len63", "len64", "len65", "len129", "common", "tie", "absent", "len1", "len64"},
	}
}

// batteryCoverage counts the corners of MaxScore a battery run reached.
type batteryCoverage struct {
	rescued       int // candidates accepted on the strength of a probed list
	earlyStops    int // evaluations that ended with postings left
	primed        int // evaluations whose threshold started at a K-th score
	unprimed      int // and at -1
	blocksSkipped int
	midBlock      int // merge-to-scan hand-overs inside a block
}

// runBattery checks the corner shard's queries, a 3000-document shard's
// and a run of random shards — built, or passed through via — at k = 1, a
// usual k and a k beyond StatsK or beyond the matching documents, and
// reports which corners the run reached.
func runBattery(t *testing.T, shards uint64, via func(*index.Shard) *index.Shard) batteryCoverage {
	t.Helper()
	var cov batteryCoverage
	check := func(s *index.Shard, q []string, k int) {
		ms, tr := checkAgainstReference(t, s, q, k)
		cov.rescued += tr.rescued
		cov.blocksSkipped += ms.Stats.BlocksSkipped
		if tr.stoppedEarly {
			cov.earlyStops++
		}
		if tr.primed {
			cov.primed++
		} else {
			cov.unprimed++
		}
		if tr.midBlockHandOver() {
			cov.midBlock++
		}
	}
	corner := via(buildCornerShard(t))
	for _, q := range cornerQueries() {
		for _, k := range []int{1, 10, 1000} {
			check(corner, q, k)
		}
	}
	// Lists of dozens of blocks, where skipping has something to skip.
	long := via(buildShard(t, 31, 3000))
	for _, q := range queries() {
		for _, k := range []int{1, 10, 25} {
			check(long, q, k)
		}
	}
	rng := xrand.New(7)
	for seed := uint64(0); seed < shards; seed++ {
		s := via(buildRandomShard(t, seed))
		for i := 0; i < 4; i++ {
			q := randomQuery(rng)
			if i == 3 {
				// 9+ terms: past anything a fixed-size scratch would hold.
				for len(q) < 9+rng.Intn(4) {
					q = append(q, term(rng.Intn(130)))
				}
			}
			check(s, q, []int{1, 1 + rng.Intn(25), 1000}[rng.Intn(3)])
		}
	}
	return cov
}

// TestStrategiesMatchReference: hits bit-equal for every strategy and
// work counts equal for Exhaustive and MaxScore, over the battery of
// 320 random shards — which must have gone through MaxScore's early stop,
// through candidates that only a probed list lifted into the top-K, and
// through thresholds that started at a K-th score and at -1, skipped blocks
// and a hand-over to the scan inside a block.
func TestStrategiesMatchReference(t *testing.T) {
	cov := runBattery(t, 320, func(s *index.Shard) *index.Shard { return s })
	for _, c := range []struct {
		n    int
		what string
	}{
		{cov.rescued, "accepted a candidate on the strength of a probed list"},
		{cov.earlyStops, "reached MaxScore's early stop"},
		{cov.primed, "started from a K-th score"},
		{cov.unprimed, "started from an empty heap's threshold"},
		{cov.blocksSkipped, "skipped a block of the essential list"},
		{cov.midBlock, "handed over from the merge to the scan inside a block"},
	} {
		if c.n == 0 {
			t.Errorf("battery never %s", c.what)
		}
	}
	t.Logf("battery coverage: %+v", cov)
}

// TestMaxScoreEarlyStopOnTies pins the early stop's exact position: with
// k documents tied at the term's maximum score, the threshold reaches the
// list's bound after k postings, and not one more is traversed.
func TestMaxScoreEarlyStopOnTies(t *testing.T) {
	s := buildCornerShard(t)
	for _, k := range []int{1, 7} {
		want, tr := refMaxScore(s, []string{"tie"}, k)
		if !tr.stoppedEarly || want.Stats.PostingsTraversed != k {
			t.Fatalf("k=%d: reference traversed %d postings (early stop %v), want %d",
				k, want.Stats.PostingsTraversed, tr.stoppedEarly, k)
		}
		if got := MaxScore(s, []string{"tie"}, k); costStats(got.Stats) != costStats(want.Stats) {
			t.Errorf("k=%d: stats %+v, reference %+v", k, got.Stats, want.Stats)
		}
	}
}

// TestMaxScoreFloorAndSkipCases names the corners of the two shortcuts the
// evaluator takes from the index. Every case goes through
// checkAgainstReference — hits bit-equal to Exhaustive, work counts equal
// to the reference — and then says what else must be true of it.
func TestMaxScoreFloorAndSkipCases(t *testing.T) {
	corner := buildCornerShard(t)
	long := buildShard(t, 31, 3000)
	parent := func(s *index.Shard, q []string, k int) [5]int {
		r, _ := refMaxScoreWith(s, q, k, false, false)
		return costStats(r.Stats)
	}

	t.Run("k above StatsK", func(t *testing.T) {
		q := []string{"wa", "wb"}
		at, tr := checkAgainstReference(t, long, q, long.StatsK)
		if !tr.primed {
			t.Fatal("k = StatsK did not start from a K-th score")
		}
		above, tr := checkAgainstReference(t, long, q, long.StatsK+1)
		if tr.primed {
			t.Fatal("k = StatsK+1 started from a K-th score: fewer than k documents are known to reach it")
		}
		unprimed, _ := refMaxScoreWith(long, q, long.StatsK+1, false, true)
		if costStats(above.Stats) != costStats(unprimed.Stats) {
			t.Errorf("k = StatsK+1: stats %+v, without priming %+v", above.Stats, unprimed.Stats)
		}
		if at.Stats.PostingsTraversed >= above.Stats.PostingsTraversed {
			t.Errorf("k = StatsK traversed %d postings, k = StatsK+1 %d: the floor saved nothing",
				at.Stats.PostingsTraversed, above.Stats.PostingsTraversed)
		}
		// A heap that never fills never raises the threshold: nothing is
		// primed, nothing skipped, and the counts are the parent's.
		never, _ := checkAgainstReference(t, corner, []string{"len129", "common"}, 1000)
		if got := costStats(never.Stats); got != parent(corner, []string{"len129", "common"}, 1000) {
			t.Errorf("k = 1000: stats %v differ from the parent evaluator's", got)
		}
	})

	t.Run("every list shorter than StatsK", func(t *testing.T) {
		for _, q := range [][]string{{"len5"}, {"len9"}, {"len1", "len5", "len9"}} {
			for _, k := range []int{1, 3, 10} {
				got, tr := checkAgainstReference(t, corner, q, k)
				if tr.primed {
					t.Fatalf("%v k=%d: primed from a list with fewer than StatsK postings", q, k)
				}
				if costStats(got.Stats) != parent(corner, q, k) {
					t.Errorf("%v k=%d: stats %+v differ from the parent evaluator's", q, k, got.Stats)
				}
			}
		}
	})

	t.Run("ties at the floor", func(t *testing.T) {
		// Every "tie" posting scores the term's maximum, which is therefore
		// its K-th score and the floor's source: more documents sit exactly
		// one ulp above the floor than the top-K has room for, and which of
		// them enter is the doc-ID tie-break's to say.
		ti, _ := corner.Lookup("tie")
		for _, q := range [][]string{{"tie"}, {"tie", "common"}, {"tie", "len1"}} {
			above, tied := 0, 0
			for _, h := range refExhaustive(corner, q, 1000).Hits {
				switch {
				case h.Score > ti.Stats.KthScore:
					above++
				case h.Score == ti.Stats.KthScore:
					tied++
				}
			}
			const k = 10
			if !(above < k && k < above+tied) {
				t.Fatalf("%v: %d documents above the floor and %d tied at it do not straddle k=%d", q, above, tied, k)
			}
			if _, tr := checkAgainstReference(t, corner, q, k); !tr.primed {
				t.Fatalf("%v: not primed", q)
			}
		}
		if r := MaxScore(corner, []string{"tie", "len1"}, 10); r.Hits[0].Score <= ti.Stats.KthScore {
			t.Error("{tie, len1}: no document above the tied ones; the case lost its point")
		}
	})

	t.Run("duplicate query terms", func(t *testing.T) {
		for _, c := range [][2][]string{
			{{"wa", "wa"}, {"wa"}},
			{{"wb", "wa", "wb", "wa"}, {"wb", "wa"}},
		} {
			dup, _ := checkAgainstReference(t, long, c[0], 10)
			once, _ := checkAgainstReference(t, long, c[1], 10)
			if !hitsIdentical(dup.Hits, once.Hits) || costStats(dup.Stats) != costStats(once.Stats) {
				t.Errorf("%v evaluated differently from %v: %+v vs %+v", c[0], c[1], dup.Stats, once.Stats)
			}
		}
	})

	t.Run("k = 1", func(t *testing.T) {
		// The floor is still the StatsK-th score: lower than the answer's,
		// but known before the first posting.
		for _, q := range [][]string{{"wa"}, {"wa", "wb", "wc"}} {
			got, tr := checkAgainstReference(t, long, q, 1)
			if !tr.primed || got.Stats.BlocksSkipped == 0 {
				t.Errorf("%v k=1: primed %v, %d blocks skipped", q, tr.primed, got.Stats.BlocksSkipped)
			}
			if got.Stats.PostingsTraversed >= parent(long, q, 1)[0] {
				t.Errorf("%v k=1: %d postings traversed, no fewer than the parent evaluator", q, got.Stats.PostingsTraversed)
			}
		}
	})

	t.Run("hand-over in mid-block", func(t *testing.T) {
		// Two lists essential (k > StatsK: no floor) until the heap's
		// threshold passes the weaker one's bound, somewhere inside a block
		// of the stronger: the scan finishes that block posting by posting
		// and skips from the next boundary on.
		q := []string{"wa", "wl"}
		for _, k := range []int{11, 25} {
			got, tr := checkAgainstReference(t, long, q, k)
			if !tr.midBlockHandOver() || got.Stats.BlocksSkipped == 0 {
				t.Fatalf("k=%d: scan began at posting %d and skipped %d blocks; want a start inside a block and skips after it",
					k, tr.scanFrom, got.Stats.BlocksSkipped)
			}
			noSkip, _ := refMaxScoreWith(long, q, k, true, false)
			if got.Stats.DocsScored >= noSkip.Stats.DocsScored {
				t.Errorf("k=%d: skipping scored %d documents, not skipping %d", k, got.Stats.DocsScored, noSkip.Stats.DocsScored)
			}
		}
	})
}

// TestLoadedShardsMatchReference: the same battery over shards that went
// Encode -> ReadShard. A loader that forgot the normalisation table would
// still pass the comparison (scoring falls back to the formula), so its
// presence is checked too.
func TestLoadedShardsMatchReference(t *testing.T) {
	t.Run("v5", func(t *testing.T) {
		runBattery(t, 60, func(s *index.Shard) *index.Shard {
			var buf bytes.Buffer
			if err := s.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			loaded, err := index.ReadShard(&buf)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if loaded.NormTableBytes() == 0 {
				t.Fatal("loaded shard has no normalisation table")
			}
			return loaded
		})
	})
}

// TestMaxScoreAllocs: the top-K heap and the returned hits, nothing else —
// prefix sums, contributions, current documents and scored blocks all
// live in the pooled cursor set, whatever the number of terms.
func TestMaxScoreAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime randomly drops sync.Pool items; pooled paths allocate")
	}
	s := buildShard(t, 9, 4000)
	for _, q := range [][]string{
		{"wa"},
		{"wa", "wb", "wc"},
		{"wa", "wb", "wc", "wd", "we", "wf", "wg", "wh", "wi", "wj", "wk"},
	} {
		MaxScore(s, q, 10) // warm the pool
		if allocs := testing.AllocsPerRun(50, func() { MaxScore(s, q, 10) }); allocs > 2 {
			t.Errorf("MaxScore with %d terms allocates %v per run, want <= 2", len(q), allocs)
		}
	}
}
