package search

import (
	"math"
	"testing"

	"cottage/internal/index"
	"cottage/internal/race"
	"cottage/internal/xrand"
)

// buildRandomShard creates a small shard whose every dimension — document
// count, vocabulary size, document length, Zipf skew — is drawn from the
// seed, so a battery over many seeds covers single-posting terms, dense
// terms, shards smaller than one anytime range, and shards spanning many.
func buildRandomShard(tb testing.TB, seed uint64) *index.Shard {
	tb.Helper()
	rng := xrand.New(seed)
	docs := 10 + rng.Intn(400)
	vocab := 5 + rng.Intn(120)
	skew := 1.05 + float64(rng.Intn(100))/100
	b := index.NewBuilder(int(seed), index.DefaultBM25(), 10)
	zipf := xrand.NewZipf(rng, skew, vocab)
	for d := 0; d < docs; d++ {
		n := 3 + rng.Intn(60)
		terms := make(map[string]int)
		for i := 0; i < n; i++ {
			terms[term(zipf.Draw())]++
		}
		b.Add(int64(seed)<<20|int64(d), terms, n)
	}
	return b.Finalize()
}

// randomQuery draws 1-4 terms from the shard's plausible vocabulary,
// occasionally including absent or duplicate terms.
func randomQuery(rng *xrand.RNG) []string {
	n := 1 + rng.Intn(4)
	q := make([]string, n)
	for i := range q {
		switch r := rng.Intn(10); {
		case r == 0:
			q[i] = "absent-term"
		case r == 1 && i > 0:
			q[i] = q[i-1] // duplicate
		default:
			q[i] = term(rng.Intn(130))
		}
	}
	return q
}

// hitsIdentical demands bitwise equality: same documents, same score
// bits, same order. No tolerance.
func hitsIdentical(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Local != b[i].Local ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestAnytimeInfiniteDeadlineDifferential is the battery's core claim:
// with an infinite deadline, Anytime is bitwise-identical — documents,
// score bits, order — to Exhaustive and MaxScore, across 320 random
// shards. Any floating-point reordering in the range traversal, any
// unsound block bound or skip, any tie-break drift shows up here.
func TestAnytimeInfiniteDeadlineDifferential(t *testing.T) {
	rng := xrand.New(99)
	for seed := uint64(0); seed < 320; seed++ {
		s := buildRandomShard(t, seed)
		q := randomQuery(rng)
		k := 1 + rng.Intn(25)
		ex := Exhaustive(s, q, k)
		an := Anytime(s, q, k, nil)
		if an.Terminated {
			t.Fatalf("seed %d: infinite deadline terminated", seed)
		}
		if !hitsIdentical(ex.Hits, an.Hits) {
			t.Fatalf("seed %d: anytime differs from exhaustive for %v k=%d:\n ex=%v\n an=%v",
				seed, q, k, ex.Hits, an.Hits)
		}
		if ms := MaxScore(s, q, k); !hitsIdentical(an.Hits, ms.Hits) {
			t.Fatalf("seed %d: anytime differs from maxscore for %v k=%d:\n an=%v\n ms=%v",
				seed, q, k, an.Hits, ms.Hits)
		}
		// The certificate of an exact result is the k-th returned score.
		wantBound := 0.0
		if len(an.Hits) == k {
			wantBound = an.Hits[k-1].Score
		}
		if an.ScoreBound != wantBound {
			t.Fatalf("seed %d: exact result has ScoreBound %v, want %v", seed, an.ScoreBound, wantBound)
		}
	}
}

// TestBlockMaxDifferential is MaxScore's block-skip exactness battery:
// across 320 random shards, with k drawn small so the primed threshold
// lets whole essential-list blocks go on Block.Max, MaxScore must return
// bitwise-identical hits to Exhaustive. A block bound may only veto
// work, never change a score, so any unsound skip shows up here; the
// battery must also actually skip.
func TestBlockMaxDifferential(t *testing.T) {
	rng := xrand.New(99)
	skipped := 0
	for seed := uint64(0); seed < 320; seed++ {
		s := buildRandomShard(t, seed)
		q := randomQuery(rng)
		k := 1 + rng.Intn(3)
		ex := Exhaustive(s, q, k)
		ms := MaxScore(s, q, k)
		if !hitsIdentical(ex.Hits, ms.Hits) {
			t.Fatalf("seed %d: maxscore differs from exhaustive for %v k=%d:\n ex=%v\n ms=%v",
				seed, q, k, ex.Hits, ms.Hits)
		}
		skipped += ms.Stats.BlocksSkipped
	}
	if skipped == 0 {
		t.Error("no block skipped across the battery: the block-skip path went untested")
	}
}

// recomputeScore recalculates a document's exact score from the raw
// postings, independent of any cursor machinery.
func recomputeScore(s *index.Shard, terms []string, doc uint32) float64 {
	seen := make(map[string]bool)
	score := 0.0
	for _, text := range terms {
		if seen[text] {
			continue
		}
		seen[text] = true
		ti, ok := s.Lookup(text)
		if !ok {
			continue
		}
		ps := ti.AllPostings()
		i := index.Seek(ps, doc)
		if i < len(ps) && ps[i].Doc == doc {
			score += s.TermScore(ti, ps[i])
		}
	}
	return score
}

// TestAnytimeFiniteDeadlineProperties checks the contract under every
// possible truncation point: hits are exactly scored, free of duplicates,
// properly ordered, and ScoreBound upper-bounds the true k-th score.
func TestAnytimeFiniteDeadlineProperties(t *testing.T) {
	rng := xrand.New(7)
	for seed := uint64(500); seed < 560; seed++ {
		s := buildRandomShard(t, seed)
		q := randomQuery(rng)
		k := 1 + rng.Intn(15)
		ex := Exhaustive(s, q, k)
		trueKth := 0.0
		if len(ex.Hits) == k {
			trueKth = ex.Hits[k-1].Score
		}
		full := Anytime(s, q, k, nil).Stats.PostingsTraversed
		for budget := 0; budget <= full; budget += 1 + full/7 {
			b := budget
			r := Anytime(s, q, k, func(st ExecStats) bool {
				return st.PostingsTraversed >= b
			})
			seen := make(map[uint32]bool)
			for i, h := range r.Hits {
				if seen[h.Local] {
					t.Fatalf("seed %d budget %d: duplicate doc %d", seed, b, h.Local)
				}
				seen[h.Local] = true
				if want := recomputeScore(s, q, h.Local); h.Score != want {
					t.Fatalf("seed %d budget %d: doc %d score %v, exact %v", seed, b, h.Local, h.Score, want)
				}
				if i > 0 && (h.Score > r.Hits[i-1].Score ||
					(h.Score == r.Hits[i-1].Score && h.Local < r.Hits[i-1].Local)) {
					t.Fatalf("seed %d budget %d: hits out of order at %d", seed, b, i)
				}
			}
			if r.ScoreBound < trueKth {
				t.Fatalf("seed %d budget %d: ScoreBound %v < true k-th %v", seed, b, r.ScoreBound, trueKth)
			}
			if !r.Terminated && !hitsIdentical(r.Hits, ex.Hits) {
				t.Fatalf("seed %d budget %d: untruncated result differs from exhaustive", seed, b)
			}
		}
	}
}

// TestAnytimeMonotoneQuality: a longer deadline never yields a worse
// top-K. Quality is the sum of returned scores — ranges are visited
// best-bound-first, so every extra range can only add or improve hits.
func TestAnytimeMonotoneQuality(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 40; trial++ {
		s := buildRandomShard(t, 900+uint64(trial))
		q := randomQuery(rng)
		k := 1 + rng.Intn(12)
		full := Anytime(s, q, k, nil).Stats.PostingsTraversed
		prev := -1.0
		for budget := 0; budget <= full+1; budget += 1 + full/11 {
			b := budget
			r := Anytime(s, q, k, func(st ExecStats) bool {
				return st.PostingsTraversed >= b
			})
			sum := 0.0
			for _, h := range r.Hits {
				sum += h.Score
			}
			if sum < prev {
				t.Fatalf("trial %d: quality regressed from %v to %v at budget %d", trial, prev, sum, b)
			}
			prev = sum
		}
	}
}

// TestAnytimeEdgeCases mirrors the other strategies' edge behaviour.
func TestAnytimeEdgeCases(t *testing.T) {
	s := buildShard(t, 3, 500)
	if r := Anytime(s, nil, 10, nil); len(r.Hits) != 0 || r.Terminated {
		t.Error("nil query should return nothing")
	}
	if r := Anytime(s, []string{"zzzznope"}, 10, nil); len(r.Hits) != 0 || r.Stats.TermsMatched != 0 {
		t.Error("absent term should return nothing")
	}
	if r := Anytime(s, []string{"wa"}, 0, nil); len(r.Hits) != 0 {
		t.Error("k=0 should return nothing")
	}
	// A deadline that is already expired returns an empty truncated
	// result whose bound still covers the whole shard.
	ex := Exhaustive(s, []string{"wa", "wb"}, 5)
	r := Anytime(s, []string{"wa", "wb"}, 5, func(ExecStats) bool { return true })
	if !r.Terminated || len(r.Hits) != 0 {
		t.Errorf("expired deadline: Terminated=%v hits=%d", r.Terminated, len(r.Hits))
	}
	if len(ex.Hits) > 0 && r.ScoreBound < ex.Hits[0].Score {
		t.Errorf("expired deadline: bound %v below best score %v", r.ScoreBound, ex.Hits[0].Score)
	}
}

// TestAnytimeDeadlineConsultedBetweenRanges: the predicate sees
// monotonically growing stats and is never called after it fires.
func TestAnytimeDeadlineConsultedBetweenRanges(t *testing.T) {
	s := buildShard(t, 13, 2000)
	calls, fired := 0, false
	Anytime(s, []string{"wa", "wb"}, 10, func(st ExecStats) bool {
		if fired {
			t.Fatal("deadline consulted after it fired")
		}
		calls++
		fired = calls >= 3
		return fired
	})
	if !fired {
		t.Fatalf("deadline consulted only %d times", calls)
	}
}

// TestAnytimeSteadyStateAllocs: the anytime machinery — range bounds,
// priority order, scratch — is pooled, so a steady-state Anytime call
// allocates no more than Exhaustive does (cursor set, topK, hits slice).
func TestAnytimeSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime randomly drops sync.Pool items; pooled paths allocate")
	}
	s := buildShard(t, 9, 4000)
	q := []string{"wa", "wb", "wc"}
	// Warm the pools.
	Anytime(s, q, 10, nil)
	Exhaustive(s, q, 10)
	noDeadline := func(ExecStats) bool { return false }
	anytime := testing.AllocsPerRun(50, func() { Anytime(s, q, 10, noDeadline) })
	exhaustive := testing.AllocsPerRun(50, func() { Exhaustive(s, q, 10) })
	if anytime > exhaustive {
		t.Errorf("Anytime allocates %v per run, Exhaustive %v: anytime scratch is not pooled", anytime, exhaustive)
	}
}

// TestAnytimePrunesLowBoundRanges: on a skewed shard the best-first
// order plus the threshold break must let Anytime finish exactly while
// traversing fewer postings than Exhaustive.
func TestAnytimePrunesLowBoundRanges(t *testing.T) {
	s := buildShard(t, 31, 8000)
	q := []string{"wa", "wdp"}
	ex := Exhaustive(s, q, 10)
	an := Anytime(s, q, 10, nil)
	if !hitsIdentical(ex.Hits, an.Hits) {
		t.Fatal("pruned anytime run must stay exact")
	}
	if an.Stats.PostingsTraversed >= ex.Stats.PostingsTraversed {
		t.Errorf("anytime traversed %d postings >= exhaustive %d",
			an.Stats.PostingsTraversed, ex.Stats.PostingsTraversed)
	}
	if math.IsNaN(an.ScoreBound) {
		t.Error("ScoreBound is NaN")
	}
}
