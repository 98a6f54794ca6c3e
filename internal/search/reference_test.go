package search

import (
	"bytes"
	"fmt"
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

func (l *refList) score(s *index.Shard) float64 {
	p := l.ps[l.pos]
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
}

func refMaxScore(s *index.Shard, terms []string, k int) (Result, refMaxScoreTrace) {
	var tr refMaxScoreTrace
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
	first := 0
	for first < m {
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
		theta := tk.threshold()
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
		theta = tk.threshold()
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

func refWAND(s *index.Shard, terms []string, k int) Result {
	slab := refOpen(s, terms)
	st := ExecStats{TermsMatched: len(slab)}
	if len(slab) == 0 || k <= 0 {
		return Result{Stats: st}
	}
	canonical := func(doc uint32) float64 {
		score := 0.0
		for _, l := range slab {
			if i := index.Seek(l.ps, doc); i < len(l.ps) && l.ps[i].Doc == doc {
				score += s.BM25.Score(l.idf, l.ps[i].TF, s.DocLens[doc], s.AvgDocLen)
			}
		}
		return score
	}
	tk := &refTopK{k: k}
	cs := append([]*refList(nil), slab...)
	for {
		live := cs[:0]
		for _, l := range cs {
			if !l.done() {
				live = append(live, l)
			}
		}
		cs = live
		if len(cs) == 0 {
			break
		}
		for i := 1; i < len(cs); i++ {
			l := cs[i]
			j := i
			for j > 0 && cs[j-1].doc() > l.doc() {
				cs[j] = cs[j-1]
				j--
			}
			cs[j] = l
		}
		theta := tk.threshold()
		ub, pivot := 0.0, -1
		for i, l := range cs {
			ub += l.max
			if ub > theta {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			break
		}
		pivotDoc := cs[pivot].doc()
		if cs[0].doc() != pivotDoc {
			adv := 0
			for i := 1; i < pivot; i++ {
				if cs[i].doc() < pivotDoc && cs[i].max > cs[adv].max {
					adv = i
				}
			}
			cs[adv].seek(pivotDoc)
			st.PostingsTraversed++
			continue
		}
		score := 0.0
		for _, l := range cs {
			if l.doc() != pivotDoc {
				break
			}
			score += l.score(s)
		}
		st.DocsScored++
		if score > theta && tk.offer(pivotDoc, canonical(pivotDoc)) {
			st.HeapInserts++
		}
		for _, l := range cs {
			if !l.done() && l.doc() == pivotDoc {
				l.pos++
				st.PostingsTraversed++
			}
		}
	}
	return Result{Hits: tk.hits(s), Stats: st}
}

// costStats is the part of ExecStats the cluster cost model reads.
func costStats(st ExecStats) [4]int {
	return [4]int{st.PostingsTraversed, st.DocsScored, st.HeapInserts, st.TermsMatched}
}

// checkAgainstReference runs one query through every strategy. All must
// return the reference's hits bit for bit; Exhaustive, MaxScore and WAND
// must also report the reference's work counts.
func checkAgainstReference(t *testing.T, s *index.Shard, q []string, k int) refMaxScoreTrace {
	t.Helper()
	ex := refExhaustive(s, q, k)
	ms, tr := refMaxScore(s, q, k)
	wd := refWAND(s, q, k)
	if !hitsIdentical(ex.Hits, ms.Hits) || !hitsIdentical(ex.Hits, wd.Hits) {
		t.Fatalf("%v k=%d: the reference evaluators disagree:\n ex=%v\n ms=%v\n wd=%v", q, k, ex.Hits, ms.Hits, wd.Hits)
	}
	for _, c := range []struct {
		name string
		got  Result
		want *Result // work counts, where the strategy has a reference
	}{
		{"exhaustive", Exhaustive(s, q, k), &ex},
		{"maxscore", MaxScore(s, q, k), &ms},
		{"wand", WAND(s, q, k), &wd},
		{"maxscore-bm", MaxScoreBM(s, q, k), nil},
		{"wand-bm", WANDBM(s, q, k), nil},
		{"anytime", Anytime(s, q, k, nil), nil},
	} {
		if !hitsIdentical(c.got.Hits, ex.Hits) {
			t.Fatalf("%s %v k=%d: hits differ from the reference:\n got=%v\nwant=%v", c.name, q, k, c.got.Hits, ex.Hits)
		}
		if c.want != nil && costStats(c.got.Stats) != costStats(c.want.Stats) {
			t.Fatalf("%s %v k=%d: stats %+v, reference %+v", c.name, q, k, c.got.Stats, c.want.Stats)
		}
	}
	return tr
}

// buildCornerShard is the hand-made half of the battery: lists of exactly
// 1, 63, 64, 65 and 129 postings (a lone posting, a tail block one short
// of full, one full block, a full block plus one, two plus one), and a
// term whose 30 postings all tie at its maximum score.
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
		for _, l := range []int{1, 63, 64, 65, 129} {
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
	for _, l := range []int{1, 63, 64, 65, 129} {
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
		{"len1"}, {"len63"}, {"len64"}, {"len65"}, {"len129"}, {"common"}, {"tie"},
		{"len1", "len129"}, {"len64", "len65"}, {"len63", "common"},
		{"tie", "common"}, {"common", "tie", "len129"},
		{"len65", "len65"}, {"absent"}, {"absent", "len64", "absent"}, {"len129", "common", "len129"},
		{"len1", "len63", "len64", "len65", "len129", "common", "tie", "absent", "len1", "len64"},
	}
}

// runBattery checks the corner shard's queries and a run of random shards
// — built, or passed through via — at k = 1, a usual k and a k beyond the
// matching documents, and reports which corners the run reached.
func runBattery(t *testing.T, via func(*index.Shard) *index.Shard) (rescued int, earlyStops int) {
	t.Helper()
	note := func(tr refMaxScoreTrace) {
		rescued += tr.rescued
		if tr.stoppedEarly {
			earlyStops++
		}
	}
	corner := via(buildCornerShard(t))
	for _, q := range cornerQueries() {
		for _, k := range []int{1, 10, 1000} {
			note(checkAgainstReference(t, corner, q, k))
		}
	}
	rng := xrand.New(7)
	for seed := uint64(0); seed < 60; seed++ {
		s := via(buildRandomShard(t, seed))
		for i := 0; i < 4; i++ {
			q := randomQuery(rng)
			if i == 3 {
				// 9+ terms: past anything a fixed-size scratch would hold.
				for len(q) < 9+rng.Intn(4) {
					q = append(q, term(rng.Intn(130)))
				}
			}
			note(checkAgainstReference(t, s, q, []int{1, 1 + rng.Intn(25), 1000}[rng.Intn(3)]))
		}
	}
	return rescued, earlyStops
}

// TestStrategiesMatchReference: hits bit-equal for every strategy and
// work counts equal for Exhaustive, MaxScore and WAND, over the battery —
// which must have gone through MaxScore's early stop and through
// candidates that only a probed list lifted into the top-K.
func TestStrategiesMatchReference(t *testing.T) {
	rescued, earlyStops := runBattery(t, func(s *index.Shard) *index.Shard { return s })
	if rescued == 0 {
		t.Error("battery never accepted a candidate on the strength of a probed list")
	}
	if earlyStops == 0 {
		t.Error("battery never reached MaxScore's early stop")
	}
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

// TestLoadedShardsMatchReference: the same battery over shards that went
// Encode -> ReadShard in the current and both legacy formats. A loader
// that forgot the normalisation table would still pass the comparison
// (scoring falls back to the formula), so its presence is checked too.
func TestLoadedShardsMatchReference(t *testing.T) {
	for _, version := range []int{5, 4, 3} {
		version := version
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			runBattery(t, func(s *index.Shard) *index.Shard {
				var buf bytes.Buffer
				var err error
				if version == 5 {
					err = s.Encode(&buf)
				} else {
					err = s.EncodeLegacy(&buf, version)
				}
				if err != nil {
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
