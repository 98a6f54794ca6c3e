package index

import (
	"container/heap"
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

// computeTermStats evaluates the term's score over every posting (exactly
// what the indexing phase of the paper does) and summarizes. It runs on
// the builder's flat postings, before they are packed; the materialized
// per-posting scores are returned alongside the statistics so Finalize
// can build the block-max overlay from the same values.
func computeTermStats(s *Shard, ps []Posting, k int) (TermStats, []float64) {
	df := len(ps)
	idf := math.Log(1 + (float64(s.NumDocs)-float64(df)+0.5)/(float64(df)+0.5))

	scores := make([]float64, df)
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

	sorted := make([]float64, df)
	copy(sorted, scores)
	sort.Float64s(sorted)
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
	st.GeoMean = stats.GeometricMean(sorted)
	st.HarmMean = stats.HarmonicMean(sorted)

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
// experiences for this term alone.
func heapInsertions(scores []float64, k int) int {
	h := &floatMinHeap{}
	inserts := 0
	for _, sc := range scores {
		if h.Len() < k {
			heap.Push(h, sc)
			inserts++
		} else if sc > (*h)[0] {
			(*h)[0] = sc
			heap.Fix(h, 0)
			inserts++
		}
	}
	return inserts
}

type floatMinHeap []float64

func (h floatMinHeap) Len() int            { return len(h) }
func (h floatMinHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h floatMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *floatMinHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *floatMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
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
