package index

import (
	"math"
	"sort"

	"cottage/internal/stats"
)

// TermStats holds every index-time statistic the Cottage predictors need.
// Rows 1–10 of Table I and all of Table II are derived from these fields
// (see internal/features). The statistics describe the distribution of the
// term's BM25 scores across its postings, evaluated in document order —
// the same order a document-at-a-time evaluator visits them, which is why
// the "local maxima" counts are meaningful proxies for dynamic-pruning
// work (Section III-C of the paper).
type TermStats struct {
	// PostingLen is the number of documents containing the term (the
	// paper's "posting list length", Table I row 11 / Table II row 1).
	PostingLen int
	// DF-based inverse document frequency, ln(1+(N-df+0.5)/(df+0.5)).
	IDF float64

	// Score distribution summary (Table I rows 1–9).
	MinScore  float64
	Q1        float64
	Mean      float64
	Median    float64
	GeoMean   float64
	HarmMean  float64
	Q3        float64
	KthScore  float64 // K-th highest score; docs above it are "in the top-K"
	MaxScore  float64
	Variance  float64
	SumScore  float64 // running moments, kept for Taily's Gamma fit
	SumScore2 float64

	// Dynamic-pruning workload proxies (Table II).
	DocsEverInTopK     int // heap insertions during a single-term top-K scan
	NumLocalMaxima     int // local peaks of the score sequence in doc order
	NumMaximaAboveMean int
	NumMaxScore        int     // postings attaining the maximum score
	DocsWithin5OfMax   int     // scores within 5% of the max
	DocsWithin5OfKth   int     // scores within 5% of the K-th score
	EstMaxScore        float64 // cheap upper-bound approximation of MaxScore
}

// statsScratch is Finalize's reusable working space: computeTermStats's
// score list, its sorted copy and the radix sort's keys, and the payload
// packPostings builds. Finalize keeps one per goroutine, so a term's
// statistics allocate nothing once it has grown.
type statsScratch struct {
	scores, sorted []float64
	keys, tmp      []uint64
	packed         []byte
}

// computeTermStats evaluates the term's score over every posting (exactly
// what the indexing phase of the paper does) and summarizes. It runs on
// the builder's flat postings, before they are packed; the materialized
// per-posting scores are returned alongside the statistics so Finalize
// can build the block-max overlay from the same values. They live in buf
// and are valid until buf's next use.
func computeTermStats(s *Shard, ps []Posting, k int, buf *statsScratch) (TermStats, []float64) {
	df := len(ps)
	idf := math.Log(1 + (float64(s.NumDocs)-float64(df)+0.5)/(float64(df)+0.5))

	scores := grow(&buf.scores, df)
	maxTF := uint32(0)
	for i, p := range ps {
		scores[i] = s.score(idf, p)
		if p.TF > maxTF {
			maxTF = p.TF
		}
	}

	st := TermStats{PostingLen: df, IDF: idf}
	sum, sum2 := 0.0, 0.0
	for _, sc := range scores {
		sum += sc
		sum2 += sc * sc
	}
	st.SumScore, st.SumScore2 = sum, sum2

	sorted := grow(&buf.sorted, df)
	copy(sorted, scores)
	sortScores(sorted, buf)
	st.MinScore = sorted[0]
	st.MaxScore = sorted[df-1]
	st.Q1 = stats.PercentileSorted(sorted, 25)
	st.Median = stats.PercentileSorted(sorted, 50)
	st.Q3 = stats.PercentileSorted(sorted, 75)
	st.Mean = sum / float64(df)
	st.Variance = sum2/float64(df) - st.Mean*st.Mean
	if st.Variance < 0 {
		st.Variance = 0 // numerical noise on constant score lists
	}
	st.GeoMean, st.HarmMean = sortedMeans(sorted)

	// K-th highest score (the full K-th if the list is long enough,
	// otherwise the smallest score — everything is "in the top-K").
	if df >= k {
		st.KthScore = sorted[df-k]
	} else {
		st.KthScore = sorted[0]
	}

	// Counts within 5% bands.
	maxBand := st.MaxScore * 0.95
	kthBand := st.KthScore * 0.95
	for _, sc := range scores {
		if sc >= maxBand {
			st.DocsWithin5OfMax++
		}
		if sc >= kthBand {
			st.DocsWithin5OfKth++
		}
		if sc >= st.MaxScore-1e-12 {
			st.NumMaxScore++
		}
	}

	// Local maxima of the document-ordered score sequence.
	for i := range scores {
		left := i == 0 || scores[i] > scores[i-1]
		right := i == df-1 || scores[i] > scores[i+1]
		if left && right {
			st.NumLocalMaxima++
			if scores[i] > st.Mean {
				st.NumMaximaAboveMean++
			}
		}
	}

	// "Documents ever in top-K": replay a single-term top-K scan in
	// document order and count heap insertions. This is the quantity the
	// paper's Table II reports (85 insertions for a 20742-long list).
	st.DocsEverInTopK = heapInsertions(scores, k)

	// Estimated max score: the tf→∞ BM25 bound scaled by the observed
	// maximum tf, an intentionally crude approximation in the spirit of
	// Macdonald et al.'s upper bounds (the paper's Table II shows the
	// approximation overshooting the true max by ~76×).
	st.EstMaxScore = idf * (s.BM25.K1 + 1) * float64(maxTF)

	return st, scores
}

// heapInsertions counts how many scores would enter a size-k min-heap when
// scanned in order — the number of top-K churn events a DAAT evaluator
// experiences for this term alone. The heap is inlined as in the
// evaluator's top-K: container/heap would box every push.
func heapInsertions(scores []float64, k int) int {
	h := make([]float64, 0, k)
	inserts := 0
	for _, sc := range scores {
		if len(h) < k {
			h = append(h, sc)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[i] >= h[p] {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			inserts++
		} else if sc > h[0] {
			h[0] = sc
			for i := 0; ; {
				m := 2*i + 1
				if m >= len(h) {
					break
				}
				if r := m + 1; r < len(h) && h[r] < h[m] {
					m = r
				}
				if h[m] >= h[i] {
					break
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
			inserts++
		}
	}
	return inserts
}

// sortedMeans returns stats.GeometricMean and stats.HarmonicMean of an
// ascending slice in one pass. It makes the same additions in the same
// order, but takes the log and the reciprocal once per run of equal
// values: a term's scores repeat heavily, because a score depends only
// on the posting's tf and its document's length.
func sortedMeans(sorted []float64) (geo, harm float64) {
	logSum, invSum, n := 0.0, 0.0, 0
	for i := 0; i < len(sorted); {
		x := sorted[i]
		j := i + 1
		for j < len(sorted) && sorted[j] == x {
			j++
		}
		if x > 0 {
			lx, ix := math.Log(x), 1/x
			n += j - i
			for ; i < j; i++ {
				logSum += lx
				invSum += ix
			}
		}
		i = j
	}
	if n == 0 {
		return 0, 0
	}
	geo = math.Exp(logSum / float64(n))
	if invSum != 0 {
		harm = float64(n) / invSum
	}
	return geo, harm
}

// radixCutover is the list length from which sortScores radix-sorts.
// The radix sort's eight passes cost about as much as sort.Float64s near
// 512 scores and half as much from 4096 on.
const radixCutover = 1024

// sortScores sorts xs ascending in place. It leaves exactly the slice
// sort.Float64s leaves whenever xs holds no NaN and no negative zero —
// the values whose place among equals sort.Float64s does not fix — and
// BM25 scores are positive. Long lists are LSD-radix-sorted on the
// order-preserving uint64 image of the float bits: flip the sign bit of
// a non-negative value, every bit of a negative one.
func sortScores(xs []float64, buf *statsScratch) {
	if len(xs) < radixCutover {
		sort.Float64s(xs)
		return
	}
	keys, tmp := grow(&buf.keys, len(xs)), grow(&buf.tmp, len(xs))
	var counts [8][256]uint32
	for i, x := range xs {
		k := math.Float64bits(x)
		k ^= uint64(int64(k)>>63) | 1<<63
		keys[i] = k
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for d := range counts {
		c, shift := &counts[d], uint(8*d)
		if int(c[byte(keys[0]>>shift)]) == len(keys) {
			continue // every key has this digit: the pass would not move one
		}
		sum := uint32(0)
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		if k>>63 != 0 {
			k ^= 1 << 63
		} else {
			k = ^k
		}
		xs[i] = math.Float64frombits(k)
	}
}

// grow returns (*buf)[:n], reallocating *buf first if it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// Scores materializes the BM25 score of every posting of ti, in document
// order, decoding block by block. The Taily baseline and Fig. 6 use this
// to study score distributions; query evaluation never calls it.
func (s *Shard) Scores(ti *TermInfo) []float64 {
	out := make([]float64, 0, ti.Packed.N)
	var docs, tfs [BlockSize]uint32
	var scores [BlockSize]float64
	for bi := range ti.Blocks {
		n := ti.DecodeBlockInto(bi, &docs, &tfs)
		s.ScoreBlock(ti, &docs, &tfs, 0, n, &scores)
		out = append(out, scores[:n]...)
	}
	return out
}
