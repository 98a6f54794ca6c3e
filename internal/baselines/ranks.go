package baselines

import (
	"math"

	"cottage/internal/engine"
	"cottage/internal/index"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
	"cottage/internal/xrand"
)

// RankS is the CSI-based shard ranker of Kulkarni et al. (CIKM'12): a
// Central Sample Index holds a small uniform sample of every shard's
// documents; at query time the sample's top results vote for their home
// shards with exponentially decayed weights, and shards whose vote mass
// clears a fixed threshold are searched. As the paper observes
// (Section V-B), the sample gives only *relative* shard importance — it
// cannot see actual top-K membership — so its cutoffs are the least
// precise of the compared policies.
type RankS struct {
	// CSI is the sample index; docs keep their global IDs.
	CSI *index.Shard
	// HomeShard maps a global document ID to the shard it was sampled
	// from.
	HomeShard map[int64]int
	// B is the exponential decay base for vote weights (vote of the
	// rank-r sample hit = score · B^-r).
	B float64
	// Threshold is the absolute vote mass a shard needs to be selected.
	Threshold float64
	// SampleTopN is how many CSI results vote.
	SampleTopN int

	numShards int
}

// RankSConfig parameterizes construction.
type RankSConfig struct {
	SampleRate float64 // fraction of each shard's docs in the CSI (paper: 1%)
	B          float64
	Threshold  float64
	SampleTopN int
	Seed       uint64
}

// DefaultRankSConfig approximates the paper's 1%-sampled CSI. The rate is
// scaled up to 10% because 1% of our 48K-document corpus would leave only
// ~30 sample documents per shard — far less per-shard evidence than 1% of
// the paper's 34M documents — and Rank-S would degenerate to selecting
// one or two shards instead of its characteristic ~11 of 16.
func DefaultRankSConfig() RankSConfig {
	return RankSConfig{SampleRate: 0.10, B: 1.35, Threshold: 0.001, SampleTopN: 200, Seed: 99}
}

// NewRankS samples the corpus allocation into a CSI. alloc[s] lists the
// corpus document indices on shard s (the same allocation the engine's
// shards were built from).
func NewRankS(corpus *textgen.Corpus, alloc [][]int, bm25 index.BM25Params, cfg RankSConfig) *RankS {
	if cfg.SampleRate <= 0 || cfg.SampleRate > 1 {
		panic("baselines: RankS sample rate must be in (0,1]")
	}
	rng := xrand.New(cfg.Seed).SplitName("ranks-csi")
	b := index.NewBuilder(-1, bm25, 10)
	home := make(map[int64]int)
	for si, docIDs := range alloc {
		for _, id := range docIDs {
			if rng.Float64() >= cfg.SampleRate {
				continue
			}
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
			home[int64(id)] = si
		}
	}
	// Guarantee a non-empty CSI even at tiny sample rates.
	if len(home) == 0 {
		d := &corpus.Docs[alloc[0][0]]
		terms := make(map[string]int, len(d.Terms))
		for tid, tf := range d.Terms {
			terms[corpus.Vocab[tid]] = tf
		}
		b.Add(int64(d.ID), terms, d.Length)
		home[int64(d.ID)] = 0
	}
	return &RankS{
		CSI:        b.Finalize(),
		HomeShard:  home,
		B:          cfg.B,
		Threshold:  cfg.Threshold,
		SampleTopN: cfg.SampleTopN,
		numShards:  len(alloc),
	}
}

// Name implements engine.Policy.
func (*RankS) Name() string { return "rank-s" }

// Votes computes per-shard vote mass for a query from the CSI.
func (r *RankS) Votes(terms []string) []float64 {
	votes := make([]float64, r.numShards)
	hits := search.MaxScore(r.CSI, terms, r.SampleTopN).Hits
	for rank, h := range hits {
		s, ok := r.HomeShard[h.Doc]
		if !ok {
			continue
		}
		votes[s] += h.Score * math.Pow(r.B, -float64(rank))
	}
	return votes
}

// Decide implements engine.Policy: select shards whose vote mass clears
// the fixed threshold. If the sample produces no votes at all (the CSI
// missed the query's matching documents entirely), Rank-S has no signal
// and searches nothing beyond the single top-voted shard — reproducing
// the quality cliffs of Fig. 12(b).
func (r *RankS) Decide(e *engine.Engine, q trace.Query, _ float64) engine.Decision {
	votes := r.Votes(q.Terms)
	participate := make([]bool, len(e.Shards))
	selected := 0
	maxVote, maxShard := 0.0, 0
	for s, v := range votes {
		if v > maxVote {
			maxVote, maxShard = v, s
		}
		if v >= r.Threshold {
			participate[s] = true
			selected++
		}
	}
	if selected == 0 && maxVote > 0 {
		participate[maxShard] = true
	}
	return engine.Decision{
		Participate: participate,
		BudgetMS:    math.Inf(1),
		// One CSI lookup at the aggregator before dispatch.
		CoordMS: 0.3,
	}
}
