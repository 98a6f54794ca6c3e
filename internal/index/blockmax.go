package index

import "fmt"

// Block-max overlay: every term's postings are tiled into fixed-size
// blocks, each carrying the largest BM25 score among its postings and
// the document of its last posting. The overlay is what makes safe
// early termination possible — a traversal that knows "no document in
// this region can score above X" may skip or defer the region without
// giving up exactness (internal/search.MaxScore's skips over the
// essential list, and the anytime ranking of Mackenzie et al. that
// internal/search.Anytime follows). The overlay is also the postings skip
// list: each Block records where its bit-packed payload lives (Off) and
// the packed widths (DocW, TFW), so block-max blocks and physical posting
// blocks are the same thing.

// BlockSize is the number of postings per block-max block. 64 keeps the
// overlay under 2% of postings storage while giving upper bounds tight
// enough that a priority-ordered traversal finds the high-scoring
// regions first. It equals simdpack.BlockLen, so one block decodes in
// one kernel call.
const BlockSize = 64

// Block is one fixed-size run of postings: its score upper bounds plus
// the location and shape of its packed payload. A term's block i covers
// postings [i*BlockSize, (i+1)*BlockSize) (the last block may be
// short); blocks tile the postings exactly.
type Block struct {
	// MaxDoc is the document of the block's last posting — the
	// inclusive upper end of the block's document span (the span starts
	// at the block's first posting's document). It is also the delta
	// base for the next block's document gaps.
	MaxDoc uint32
	// Max is the largest BM25 score among the block's postings: a safe
	// upper bound on any single-term contribution from the span.
	Max float64
	// Off is the byte offset of the block's packed payload in
	// Packed.Data: PackedBytes(DocW) bytes of document gaps followed by
	// PackedBytes(TFW) bytes of tf-1 values.
	Off uint32
	// DocW and TFW are the block's packed bit widths (0..32).
	DocW uint8
	TFW  uint8
}

// fillBlockBounds installs each block's score ceiling, taking it from
// the already-materialized per-posting scores (scores[i] belongs to
// posting i) — the same values the term statistics are computed from.
func fillBlockBounds(blocks []Block, scores []float64) {
	for bi := range blocks {
		lo := bi * BlockSize
		hi := lo + BlockSize
		if hi > len(scores) {
			hi = len(scores)
		}
		max := scores[lo]
		for _, sc := range scores[lo+1 : hi] {
			if sc > max {
				max = sc
			}
		}
		blocks[bi].Max = max
	}
}

// NumBlocks returns how many block-max blocks tile the term's postings.
func (ti *TermInfo) NumBlocks() int { return len(ti.Blocks) }

// validateBlocks checks the score bounds the evaluators prune on, for one
// term. The block-max overlay: each block's MaxDoc is its last posting's
// document, no posting's score exceeds its block's bound, and some
// posting attains it. And Stats.KthScore, which MaxScore starts its
// threshold from: it is the StatsK-th highest score of the list (the
// lowest, of a shorter list) — some posting attains it, at least
// min(StatsK, df) postings reach it and fewer than that exceed it. An
// overstated KthScore would prune documents
// of the true top-K; one merely attained and reached often enough but
// understated would be sound and is refused all the same, since the
// predictors' features read it too. Scores are recomputed from the
// reference formula, BM25Params.Score, while Finalize took them from
// TermScore and the normalisation table; the two agree bit for bit, so
// every comparison is exact — and a table that ever disagreed with the
// formula fails here. The packed geometry has already been checked when
// this runs.
func (s *Shard) validateBlocks(ti *TermInfo) error {
	var docs, tfs [BlockSize]uint32
	kth := ti.Stats.KthScore
	aboveKth, atKth := 0, 0
	for bi := range ti.Blocks {
		blk := &ti.Blocks[bi]
		n := ti.DecodeBlockInto(bi, &docs, &tfs)
		if blk.MaxDoc != docs[n-1] {
			return fmt.Errorf("index: term %q block %d MaxDoc %d != last posting doc %d",
				ti.Text, bi, blk.MaxDoc, docs[n-1])
		}
		attained := false
		for i := 0; i < n; i++ {
			sc := s.BM25.Score(ti.Stats.IDF, tfs[i], s.DocLens[docs[i]], s.AvgDocLen)
			if sc > blk.Max {
				return fmt.Errorf("index: term %q block %d: posting doc %d scores %v above block max %v",
					ti.Text, bi, docs[i], sc, blk.Max)
			}
			if sc == blk.Max {
				attained = true
			}
			switch {
			case sc > kth:
				aboveKth++
			case sc == kth:
				atKth++
			}
		}
		if !attained {
			return fmt.Errorf("index: term %q block %d: no posting attains block max %v", ti.Text, bi, blk.Max)
		}
	}
	if want := min(s.StatsK, ti.Packed.N); atKth == 0 || aboveKth+atKth < want || aboveKth >= want {
		return fmt.Errorf("index: term %q kth score %v is not its %d-th highest: %d postings attain it, %d exceed it",
			ti.Text, kth, want, atKth, aboveKth)
	}
	return nil
}
