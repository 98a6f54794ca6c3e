package index

import (
	"container/heap"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cottage/internal/stats"
	"cottage/internal/xrand"
)

// scoreLists returns random score-like lists around the radix cutover and
// well past it: few distinct values (heavy duplicates), zeros, values
// spanning many binades, and negatives, which sortScores must order too.
func scoreLists() [][]float64 {
	rng := xrand.New(21)
	var lists [][]float64
	for _, n := range []int{1, 2, radixCutover - 1, radixCutover, radixCutover + 1, 5000} {
		for kind := 0; kind < 5; kind++ {
			xs := make([]float64, n)
			for i := range xs {
				switch kind {
				case 0: // few distinct values
					xs[i] = float64(1+rng.Intn(6)) * 0.37
				case 1: // zeros among positives
					if rng.Intn(3) == 0 {
						xs[i] = 0
					} else {
						xs[i] = rng.Float64() * 9
					}
				case 2: // many binades
					xs[i] = math.Ldexp(rng.Float64(), rng.Intn(80)-40)
				case 3: // mixed signs
					xs[i] = rng.NormFloat64() * 5
				default: // all equal
					xs[i] = 2.5
				}
			}
			lists = append(lists, xs)
		}
	}
	return lists
}

// TestSortScoresMatchesSortFloat64s: the radix sort leaves the very bits
// sort.Float64s leaves, on both sides of the cutover.
func TestSortScoresMatchesSortFloat64s(t *testing.T) {
	var buf statsScratch
	for li, xs := range scoreLists() {
		got := slices.Clone(xs)
		want := slices.Clone(xs)
		sortScores(got, &buf)
		sort.Float64s(want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("list %d (len %d): element %d = %v, want %v", li, len(xs), i, got[i], want[i])
			}
		}
	}
}

// TestSortedMeansMatchStats: the one-pass means equal the stats package's
// two passes bit for bit.
func TestSortedMeansMatchStats(t *testing.T) {
	lists := append(scoreLists(), nil, []float64{0, 0}, []float64{-1, 0})
	for li, xs := range lists {
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		geo, harm := sortedMeans(sorted)
		if wg := stats.GeometricMean(sorted); math.Float64bits(geo) != math.Float64bits(wg) {
			t.Errorf("list %d: geometric mean %v, want %v", li, geo, wg)
		}
		if wh := stats.HarmonicMean(sorted); math.Float64bits(harm) != math.Float64bits(wh) {
			t.Errorf("list %d: harmonic mean %v, want %v", li, harm, wh)
		}
	}
}

// referenceStats is computeTermStats the direct way, from the term's
// document-ordered scores: sort a copy with sort.Float64s, read the order
// statistics and means off it with the stats package, and count the bands
// and local maxima in one scan.
func referenceStats(s *Shard, ti *TermInfo) TermStats {
	scores := s.Scores(ti)
	df, k := len(scores), s.StatsK
	sorted := slices.Clone(scores)
	sort.Float64s(sorted)
	st := TermStats{PostingLen: df, IDF: ti.Stats.IDF}
	maxTF := uint32(0)
	for _, p := range ti.AllPostings() {
		maxTF = max(maxTF, p.TF)
	}
	st.EstMaxScore = st.IDF * (s.BM25.K1 + 1) * float64(maxTF)
	for _, sc := range scores {
		st.SumScore += sc
		st.SumScore2 += sc * sc
	}
	st.MinScore, st.MaxScore = sorted[0], sorted[df-1]
	st.Q1 = stats.PercentileSorted(sorted, 25)
	st.Median = stats.PercentileSorted(sorted, 50)
	st.Q3 = stats.PercentileSorted(sorted, 75)
	st.Mean = st.SumScore / float64(df)
	st.Variance = max(st.SumScore2/float64(df)-st.Mean*st.Mean, 0)
	st.GeoMean, st.HarmMean = stats.GeometricMean(sorted), stats.HarmonicMean(sorted)
	st.KthScore = sorted[0]
	if df >= k {
		st.KthScore = sorted[df-k]
	}
	for i, sc := range scores {
		if sc >= st.MaxScore*0.95 {
			st.DocsWithin5OfMax++
		}
		if sc >= st.KthScore*0.95 {
			st.DocsWithin5OfKth++
		}
		if sc >= st.MaxScore-1e-12 {
			st.NumMaxScore++
		}
		if (i == 0 || sc > scores[i-1]) && (i == df-1 || sc > scores[i+1]) {
			st.NumLocalMaxima++
			if sc > st.Mean {
				st.NumMaximaAboveMean++
			}
		}
	}
	st.DocsEverInTopK = heapInsertions(scores, k)
	return st
}

// TestTermStatsMatchReference: every TermStats field Finalize computes
// equals, bit for bit, the one read off a sort.Float64s copy of the
// term's scores — on shards whose (tf, length) postings tie in score
// across different keys, with lists on both sides of the radix cutover.
func TestTermStatsMatchReference(t *testing.T) {
	// K1 = 1 and B = 1 make a posting's length normalisation dl/avgdl, so
	// (tf, dl) keys with the same tf/dl ratio score alike in exact
	// arithmetic, and (1, 8), (2, 16) and (4, 32) tie to the bit when the
	// average length is a power of two.
	rng := xrand.New(5)
	ties := 0
	lens := []int{8, 16, 24, 8, 32, 8} // averaging 16 over any multiple of 6 documents
	for _, n := range []int{60, radixCutover + 2, 3 * radixCutover} {
		b := NewBuilder(0, BM25Params{K1: 1, B: 1}, 10)
		for d := 0; d < n; d++ {
			dl := lens[d%len(lens)]
			terms := map[string]int{
				"ratio": dl / 8,
				"head":  1 + rng.Intn(3),
				"tail":  1 + rng.Intn(40),
			}
			if d%7 == 0 {
				terms["sparse"] = 1 + d%2
			}
			b.Add(int64(d), terms, dl)
		}
		s := b.Finalize()
		if s.AvgDocLen != 16 {
			t.Fatalf("average length %v, want 16", s.AvgDocLen)
		}
		for i := range s.Terms {
			ti := &s.Terms[i]
			got, want := reflect.ValueOf(ti.Stats), reflect.ValueOf(referenceStats(s, ti))
			for f := 0; f < got.NumField(); f++ {
				g, w := got.Field(f), want.Field(f)
				same := g.Kind() == reflect.Int && g.Int() == w.Int() ||
					g.Kind() == reflect.Float64 && math.Float64bits(g.Float()) == math.Float64bits(w.Float())
				if !same {
					t.Fatalf("%d docs, term %q: %s = %v, want %v", n, ti.Text, got.Type().Field(f).Name, g, w)
				}
			}
			keys := make(map[Posting]bool)
			for _, p := range ti.AllPostings() {
				keys[Posting{Doc: s.DocLens[p.Doc], TF: p.TF}] = true
			}
			distinct := make(map[float64]bool)
			for _, sc := range s.Scores(ti) {
				distinct[sc] = true
			}
			ties += len(keys) - len(distinct)
		}
	}
	if ties == 0 {
		t.Fatal("no two (tf, length) keys tied in score: the shards test nothing")
	}
}

// refMinHeap is a container/heap min-heap of float64, the reference for
// heapInsertions' inlined heap.
type refMinHeap []float64

func (h refMinHeap) Len() int            { return len(h) }
func (h refMinHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMinHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *refMinHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestHeapInsertionsMatchesContainerHeap: the inlined heap admits the same
// number of scores as a container/heap scan.
func TestHeapInsertionsMatchesContainerHeap(t *testing.T) {
	for li, scores := range scoreLists() {
		for _, k := range []int{1, 3, 10, 64} {
			h := &refMinHeap{}
			want := 0
			for _, sc := range scores {
				if h.Len() < k {
					heap.Push(h, sc)
					want++
				} else if sc > (*h)[0] {
					(*h)[0] = sc
					heap.Fix(h, 0)
					want++
				}
			}
			if got := heapInsertions(scores, k); got != want {
				t.Errorf("list %d k=%d: %d insertions, want %d", li, k, got, want)
			}
		}
	}
}
