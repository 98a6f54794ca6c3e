// Package features extracts the per-query, per-ISN feature vectors of the
// paper's Table I (quality prediction) and Table II (latency prediction)
// from index-time term statistics. Multi-term queries aggregate per-term
// features with the MAX operator, the choice the paper makes for phrase
// features (Section III-C), except for the query-length feature, which is
// the term count itself.
package features

import (
	"cottage/internal/index"
)

// QualityDim is the quality feature-vector dimension: the ten Table I
// features plus five tail-count features (rows 11-15 below). The extras
// are index-time term statistics of exactly the Table I kind; on our
// synthetic corpus the quantile-only vector saturates around 80% within-1
// accuracy because the 0-vs-1-contribution boundary lives in the extreme
// tail of the score distribution, which seven quantile points cannot
// resolve. The tail counts restore the paper's accuracy regime without
// leaving "statistics calculated during the indexing phase" (Section I).
const QualityDim = 15

// LatencyDim is the Table II feature-vector dimension.
const LatencyDim = 15

// QualityNames lists Table I's features in vector order.
var QualityNames = [QualityDim]string{
	"First quartile score",
	"Arithmetic average score",
	"Median score",
	"Geometric average score",
	"Harmonic average score",
	"Third quartile score",
	"Kth score",
	"Max score",
	"Score variance",
	"Posting list length",
	"Documents ever in top-K",
	"Documents in 5% of Kth score",
	"Documents in 5% of max score",
	"Number of max score",
	"IDF",
}

// LatencyNames lists Table II's features in vector order.
var LatencyNames = [LatencyDim]string{
	"Posting list length",
	"Documents ever in top-K",
	"Number of local score maxima",
	"Number of local score maxima larger than mean score",
	"Number of max score",
	"Query length",
	"Documents in 5% of max score",
	"Documents in 5% of Kth score",
	"Arithmetic average score",
	"Geometric average score",
	"Harmonic average score",
	"Max score",
	"Estimated max score",
	"Score variance",
	"IDF",
}

// Quality builds the Table I feature vector for the query terms on shard
// s. Terms missing from the shard contribute nothing; if no term matches,
// ok is false and the caller should treat the shard's contribution as
// zero without running the predictor.
func Quality(s *index.Shard, terms []string) (vec [QualityDim]float64, ok bool) {
	var l [LatencyDim]float64
	ok = Extract(s, terms, &vec, &l)
	return vec, ok
}

// Latency builds the Table II feature vector for the query terms on shard
// s, with the same MAX aggregation and missing-term handling as Quality.
func Latency(s *index.Shard, terms []string) (vec [LatencyDim]float64, ok bool) {
	var q [QualityDim]float64
	ok = Extract(s, terms, &q, &vec)
	return vec, ok
}

// Extract writes both predictors' feature vectors for the query terms on
// shard s into q and l (overwriting them), with a single term-dictionary
// lookup per query term, and reports whether any term matched: Resolve,
// then Aggregate.
func Extract(s *index.Shard, terms []string, q *[QualityDim]float64, l *[LatencyDim]float64) (ok bool) {
	var buf [8]*index.TermInfo
	return Aggregate(Resolve(s, terms, buf[:0]), q, l)
}

// Resolve appends to dst the dictionary entry of each of terms on shard
// s, nil where the shard lacks the term, and returns the extended slice.
func Resolve(s *index.Shard, terms []string, dst []*index.TermInfo) []*index.TermInfo {
	for _, t := range terms {
		ti, _ := s.Lookup(t)
		dst = append(dst, ti)
	}
	return dst
}

// Aggregate writes both feature vectors of a query into q and l
// (overwriting them) from its resolved terms, one entry per query term
// with nil for a term the shard lacks, and reports whether any term
// matched. Each feature is the MAX over the matched terms, taken in
// place: a statistic replaces the running value only when it is greater,
// so a NaN never replaces a value and −0 never replaces the +0 start,
// and the result does not depend on the order of infos. The query
// length is len(infos), misses and repeats included. The serving path
// (predict.ISNPredictor.Predict) and the trace path
// (predict.Fleet.PredictTrace) write straight into their networks' input
// rows.
func Aggregate(infos []*index.TermInfo, q *[QualityDim]float64, l *[LatencyDim]float64) (ok bool) {
	*q = [QualityDim]float64{}
	*l = [LatencyDim]float64{}
	for _, ti := range infos {
		if ti == nil {
			continue
		}
		ok = true
		st := &ti.Stats
		// Table I's vector order.
		maxInto(&q[0], st.Q1)
		maxInto(&q[1], st.Mean)
		maxInto(&q[2], st.Median)
		maxInto(&q[3], st.GeoMean)
		maxInto(&q[4], st.HarmMean)
		maxInto(&q[5], st.Q3)
		maxInto(&q[6], st.KthScore)
		maxInto(&q[7], st.MaxScore)
		maxInto(&q[8], st.Variance)
		maxInto(&q[9], float64(st.PostingLen))
		maxInto(&q[10], float64(st.DocsEverInTopK))
		maxInto(&q[11], float64(st.DocsWithin5OfKth))
		maxInto(&q[12], float64(st.DocsWithin5OfMax))
		maxInto(&q[13], float64(st.NumMaxScore))
		maxInto(&q[14], st.IDF)
		// The Table II statistics that Table I lacks.
		maxInto(&l[2], float64(st.NumLocalMaxima))
		maxInto(&l[3], float64(st.NumMaximaAboveMean))
		maxInto(&l[12], st.EstMaxScore)
	}
	// The rest of Table II is the MAX of the same statistics over the
	// same terms, so it equals the Table I slot bit for bit.
	l[0], l[1], l[4] = q[9], q[10], q[13]
	l[5] = float64(len(infos)) // query length is the term count, not MAXed
	l[6], l[7] = q[12], q[11]
	l[8], l[9], l[10], l[11] = q[1], q[3], q[4], q[7]
	l[13], l[14] = q[8], q[14]
	return ok
}

// maxInto raises *dst to v when v > *dst.
func maxInto(dst *float64, v float64) {
	if v > *dst {
		*dst = v
	}
}
