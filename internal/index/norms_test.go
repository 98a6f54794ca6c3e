package index

import (
	"bytes"
	"math"
	"testing"
)

// termScoreMatchesReference checks, for every posting of the shard, that
// TermScore and ScoreBlock return exactly the bits of the reference
// formula.
func termScoreMatchesReference(t *testing.T, s *Shard) {
	t.Helper()
	var docs, tfs [BlockSize]uint32
	var scores [BlockSize]float64
	for i := range s.Terms {
		ti := &s.Terms[i]
		for bi := range ti.Blocks {
			n := ti.DecodeBlockInto(bi, &docs, &tfs)
			s.ScoreBlock(ti, &docs, &tfs, 0, n, &scores)
			for j := 0; j < n; j++ {
				want := math.Float64bits(s.BM25.Score(ti.Stats.IDF, tfs[j], s.DocLens[docs[j]], s.AvgDocLen))
				if got := math.Float64bits(s.TermScore(ti, Posting{Doc: docs[j], TF: tfs[j]})); got != want {
					t.Fatalf("term %q doc %d: TermScore %x, BM25Params.Score %x", ti.Text, docs[j], got, want)
				}
				if got := math.Float64bits(scores[j]); got != want {
					t.Fatalf("term %q doc %d: ScoreBlock %x, BM25Params.Score %x", ti.Text, docs[j], got, want)
				}
			}
		}
	}
}

// TestNormTableOnEveryServingPath: Finalize and the loader — which is
// also what FetchShard repair goes through — both leave the shard with its
// length-normalisation table, sized by the longest document and not by
// the document count, and scoring through it is bit-equal to the
// reference formula.
func TestNormTableOnEveryServingPath(t *testing.T) {
	built := buildTestShard(t)
	var buf bytes.Buffer
	if err := built.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	loaded, err := ReadShard(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	paths := map[string]*Shard{"finalize": built, "v5": loaded}
	longest := uint32(0)
	for _, dl := range built.DocLens {
		if dl > longest {
			longest = dl
		}
	}
	for name, s := range paths {
		if got, want := s.NormTableBytes(), 8*(int(longest)+1); got != want {
			t.Errorf("%s: normalisation table is %d B, want 8 B x (longest document %d + 1) = %d",
				name, got, longest, want)
		}
		termScoreMatchesReference(t, s)
	}
}

// TestTermScoreWithoutNormTable: a shard that never went through
// buildNorms (assembled by hand, as tests do), and a document longer than
// the table, neither panic nor score differently.
func TestTermScoreWithoutNormTable(t *testing.T) {
	s := buildTestShard(t)
	s.norms = nil
	if s.NormTableBytes() != 0 {
		t.Fatal("table still present")
	}
	termScoreMatchesReference(t, s)

	s.buildNorms()
	s.norms = s.norms[:len(s.norms)/2] // the longer half of the documents fall past it
	termScoreMatchesReference(t, s)
}

// TestNormTableBounded: one absurd document length (a hostile or rotted
// shard file) must not size the table.
func TestNormTableBounded(t *testing.T) {
	s := buildTestShard(t)
	s.DocLens[0] = math.MaxUint32
	s.buildNorms()
	if got := s.NormTableBytes(); got != 8*maxNormLen {
		t.Fatalf("table is %d B, want the %d B cap", got, 8*maxNormLen)
	}
	termScoreMatchesReference(t, s)
}
