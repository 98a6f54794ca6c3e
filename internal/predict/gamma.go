package predict

import (
	"cottage/internal/index"
	"cottage/internal/stats"
)

// GammaEstimator is the Taily-style quality estimator (Aly et al.,
// SIGIR'13): each term's score distribution on each shard is modelled as a
// Gamma fitted from the index-time running moments, and a query's
// per-shard contribution to the global top-K is estimated as the expected
// number of documents scoring above a collection-wide threshold. It needs
// no central sample index and no training — but Fig. 6 of the Cottage
// paper shows why the Gamma fit misestimates tails, which is exactly the
// weakness the Cottage-withoutML ablation quantifies.
//
// It follows Aly et al.: a query's score on a shard is modelled as ONE
// Gamma whose mean/variance are the sums of the per-term moments (the
// "all terms present" assumption), over the documents matching the most
// frequent term. For multi-term queries whose terms rarely co-occur this
// misestimates tails and distorts the cross-shard ranking — the Fig. 6
// failure mode the paper attributes to Taily, and the error source behind
// Taily's 0.887 P@10 and the Cottage-withoutML ablation's quality loss.
type GammaEstimator struct {
	Shards []*index.Shard
}

// termModel is the fitted Gamma plus document count for one (term, shard).
type termModel struct {
	dist stats.GammaDist
	df   float64
	ok   bool
	max  float64
}

func fitTerm(s *index.Shard, text string) termModel {
	ti, found := s.Lookup(text)
	if !found {
		return termModel{}
	}
	st := ti.Stats
	mean := st.Mean
	variance := st.SumScore2/float64(st.PostingLen) - mean*mean
	d, err := stats.FitGammaMoments(mean, variance)
	if err != nil {
		// Degenerate (e.g. constant scores): treat as a point mass at the
		// mean by using a very peaked Gamma.
		d = stats.GammaDist{Shape: 1e6, Scale: mean / 1e6}
	}
	return termModel{dist: d, df: float64(st.PostingLen), ok: true, max: st.MaxScore}
}

// expectedAboveTaily estimates the count with Taily's model: one Gamma
// whose moments are the sums of the per-term moments (the "all terms
// present" score assumption), applied over the documents matching the
// query's most frequent term. For single-term queries this is exact up to
// the Gamma fit; for multi-term queries the summed moments inflate the
// modelled score of partially-matching documents, distorting the
// cross-shard ranking so the global threshold cuts some true contributors
// while retaining over-claimed shards — the "improperly cutoff some ISNs
// that would significantly contribute" failure the paper attributes to
// distribution-based prediction (Section III-B, Fig. 6).
func expectedAboveTaily(models []termModel, threshold float64) float64 {
	mean, variance := 0.0, 0.0
	df := 0.0
	any := false
	for _, m := range models {
		if !m.ok {
			continue
		}
		any = true
		mean += m.dist.Mean()
		variance += m.dist.Variance()
		if m.df > df {
			df = m.df
		}
	}
	if !any || df <= 0 {
		return 0
	}
	d, err := stats.FitGammaMoments(mean, variance)
	if err != nil {
		d = stats.GammaDist{Shape: 1e6, Scale: mean / 1e6}
	}
	return df * d.TailProb(threshold)
}

// Estimate returns each shard's expected number of documents in the
// global top-K for the query. Shards with no matching term get 0.
func (g *GammaEstimator) Estimate(terms []string, k int) []float64 {
	models := make([][]termModel, len(g.Shards))
	maxScore := 0.0
	anyMatch := false
	for si, s := range g.Shards {
		models[si] = make([]termModel, len(terms))
		for ti, t := range terms {
			m := fitTerm(s, t)
			models[si][ti] = m
			if m.ok {
				anyMatch = true
				if m.max > maxScore {
					maxScore = m.max
				}
			}
		}
	}
	out := make([]float64, len(g.Shards))
	if !anyMatch {
		return out
	}
	// Find the collection-wide score s* with expected count K above it
	// (binary search; the expected count is monotone decreasing in the
	// threshold). Taily's summed moments can push the model's support
	// above any single term's max score, so the bracket spans the summed
	// means plus a generous tail allowance.
	countAt := func(s float64) float64 {
		total := 0.0
		for _, m := range models {
			total += expectedAboveTaily(m, s)
		}
		return total
	}
	lo, hi := 0.0, maxScore*float64(len(terms)+1)*4+1
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if countAt(mid) > float64(k) {
			lo = mid
		} else {
			hi = mid
		}
	}
	sStar := (lo + hi) / 2
	for si, m := range models {
		out[si] = expectedAboveTaily(m, sStar)
	}
	return out
}
