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

// shardFit is Taily's model of a query on one shard: one Gamma whose
// moments are the sums of the per-term moments (the "all terms present"
// score assumption), applied over the documents matching the query's most
// frequent term. For single-term queries this is exact up to the Gamma
// fit; for multi-term queries the summed moments inflate the modelled
// score of partially-matching documents, distorting the cross-shard
// ranking so the global threshold cuts some true contributors while
// retaining over-claimed shards — the "improperly cutoff some ISNs that
// would significantly contribute" failure the paper attributes to
// distribution-based prediction (Section III-B, Fig. 6).
type shardFit struct {
	tail stats.GammaTail
	df   float64 // 0 when no query term is on the shard
}

func fitShard(models []termModel) shardFit {
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
		return shardFit{}
	}
	d, err := stats.FitGammaMoments(mean, variance)
	if err != nil {
		d = stats.GammaDist{Shape: 1e6, Scale: mean / 1e6}
	}
	return shardFit{tail: d.Tail(), df: df}
}

// expectedAbove is the shard's expected number of documents scoring
// above threshold.
func (f *shardFit) expectedAbove(threshold float64) float64 {
	if f.df <= 0 {
		return 0
	}
	return f.df * f.tail.TailProb(threshold)
}

// QueryFit is a query's Taily model on every shard, fitted once: Estimate
// answers for any K from it. The Cottage-withoutML ablation asks for K
// and K/2 of every query.
type QueryFit struct {
	shards []shardFit
	// hi is the upper end of the threshold search; 0 when no shard
	// matched a term.
	hi float64
}

// Fit fits the query's model on every shard.
func (g *GammaEstimator) Fit(terms []string) *QueryFit {
	f := &QueryFit{shards: make([]shardFit, len(g.Shards))}
	models := make([]termModel, len(terms))
	maxScore := 0.0
	anyMatch := false
	for si, s := range g.Shards {
		for ti, t := range terms {
			m := fitTerm(s, t)
			models[ti] = m
			if m.ok {
				anyMatch = true
				if m.max > maxScore {
					maxScore = m.max
				}
			}
		}
		f.shards[si] = fitShard(models)
	}
	if anyMatch {
		// Taily's summed moments can push the model's support above any
		// single term's max score, so the bracket spans the summed means
		// plus a generous tail allowance.
		f.hi = maxScore*float64(len(terms)+1)*4 + 1
	}
	return f
}

// Estimate returns each shard's expected number of documents in the
// global top-K for the query. Shards with no matching term get 0.
func (g *GammaEstimator) Estimate(terms []string, k int) []float64 {
	return g.Fit(terms).Estimate(k)
}

// Estimate returns each shard's expected number of documents in the
// global top-k under the fitted model.
func (f *QueryFit) Estimate(k int) []float64 {
	out := make([]float64, len(f.shards))
	if f.hi == 0 {
		return out
	}
	// Find the collection-wide score s* with expected count K above it
	// (binary search; the expected count is monotone decreasing in the
	// threshold). A step that leaves the bracket as it was would be
	// repeated by every later step, so the search stops there.
	countAt := func(s float64) float64 {
		total := 0.0
		for i := range f.shards {
			total += f.shards[i].expectedAbove(s)
		}
		return total
	}
	lo, hi := 0.0, f.hi
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if countAt(mid) > float64(k) {
			if lo == mid {
				break
			}
			lo = mid
		} else {
			if hi == mid {
				break
			}
			hi = mid
		}
	}
	sStar := (lo + hi) / 2
	for si := range f.shards {
		out[si] = f.shards[si].expectedAbove(sStar)
	}
	return out
}
