package index

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestBlocksBuiltInFinalize: every finalized term carries a block-max
// overlay that tiles its postings exactly, with sound and tight bounds.
func TestBlocksBuiltInFinalize(t *testing.T) {
	s := buildTestShard(t)
	for i := range s.Terms {
		ti := &s.Terms[i]
		ps := ti.AllPostings()
		want := (len(ps) + BlockSize - 1) / BlockSize
		if ti.NumBlocks() != want {
			t.Fatalf("%q: %d blocks for %d postings, want %d", ti.Text, ti.NumBlocks(), len(ps), want)
		}
		covered := 0
		for bi, blk := range ti.Blocks {
			lo, hi := bi*BlockSize, min((bi+1)*BlockSize, ti.Packed.N)
			if lo != covered {
				t.Fatalf("%q block %d: span starts at %d, want %d", ti.Text, bi, lo, covered)
			}
			covered = hi
			if blk.MaxDoc != ps[hi-1].Doc {
				t.Fatalf("%q block %d: MaxDoc %d != last posting doc %d", ti.Text, bi, blk.MaxDoc, ps[hi-1].Doc)
			}
			attained := false
			for _, p := range ps[lo:hi] {
				sc := s.TermScore(ti, p)
				if sc > blk.Max {
					t.Fatalf("%q block %d: posting scores %v above bound %v", ti.Text, bi, sc, blk.Max)
				}
				attained = attained || sc == blk.Max
			}
			if !attained {
				t.Fatalf("%q block %d: bound %v not attained (not tight)", ti.Text, bi, blk.Max)
			}
		}
		if covered != len(ps) {
			t.Fatalf("%q: blocks cover %d of %d postings", ti.Text, covered, len(ps))
		}
		// The overlay's global max must equal the term's max score.
		blkMax := 0.0
		for _, blk := range ti.Blocks {
			blkMax = math.Max(blkMax, blk.Max)
		}
		if math.Abs(blkMax-ti.Stats.MaxScore) > 1e-12 {
			t.Fatalf("%q: overlay max %v != stats max %v", ti.Text, blkMax, ti.Stats.MaxScore)
		}
	}
}

func TestPackPostingsEdges(t *testing.T) {
	if packed, blocks := packPostings(nil, new([]byte)); packed.N != 0 || packed.Data != nil || blocks != nil {
		t.Error("empty postings should pack to nothing")
	}
	ps := []Posting{{Doc: 3, TF: 1}}
	packed, blocks := packPostings(ps, new([]byte))
	fillBlockBounds(blocks, []float64{1.5})
	if len(blocks) != 1 || blocks[0].MaxDoc != 3 || blocks[0].Max != 1.5 {
		t.Errorf("single-posting overlay wrong: %+v", blocks)
	}
	ti := &TermInfo{Packed: packed, Blocks: blocks}
	if err := ti.checkPackedGeometry(); err != nil {
		t.Fatal(err)
	}
	if got := ti.Posting(0); got != ps[0] {
		t.Errorf("round trip = %+v, want %+v", got, ps[0])
	}
}

// TestPackedRoundTrip: pack/decode is the identity on realistic and
// adversarial postings shapes — dense, sparse, huge gaps, huge tfs,
// exactly one block, one posting over a block boundary.
func TestPackedRoundTrip(t *testing.T) {
	shapes := map[string][]Posting{
		"dense":    make([]Posting, 0, 200),
		"sparse":   nil,
		"boundary": nil,
		"hugetf":   nil,
	}
	for d := 0; d < 200; d++ {
		shapes["dense"] = append(shapes["dense"], Posting{Doc: uint32(d), TF: 1})
	}
	for d := 0; d < BlockSize+1; d++ {
		shapes["boundary"] = append(shapes["boundary"], Posting{Doc: uint32(3 * d), TF: uint32(1 + d%7)})
	}
	shapes["sparse"] = []Posting{{Doc: 0, TF: 1}, {Doc: 1 << 20, TF: 2}, {Doc: ^uint32(0) - 1, TF: 3}}
	shapes["hugetf"] = []Posting{{Doc: 5, TF: ^uint32(0)}, {Doc: 9, TF: 1}}
	for name, ps := range shapes {
		packed, blocks := packPostings(ps, new([]byte))
		ti := &TermInfo{Text: name, Packed: packed, Blocks: blocks}
		if err := ti.checkPackedGeometry(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := ti.AllPostings()
		if len(got) != len(ps) {
			t.Fatalf("%s: %d postings back, want %d", name, len(got), len(ps))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Fatalf("%s: posting %d = %+v, want %+v", name, i, got[i], ps[i])
			}
			if one := ti.Posting(i); one != ps[i] {
				t.Fatalf("%s: Posting(%d) = %+v, want %+v", name, i, one, ps[i])
			}
		}
	}
}

// TestSerializeRoundTripCarriesBlocks: the overlay survives the wire
// format bit-for-bit — ReadShard must not need to rebuild it.
func TestSerializeRoundTripCarriesBlocks(t *testing.T) {
	s := buildTestShard(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Terms {
		a, b := s.Terms[i].Blocks, got.Terms[i].Blocks
		if len(a) != len(b) {
			t.Fatalf("term %q: %d blocks after round trip, want %d", s.Terms[i].Text, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("term %q block %d changed in round trip: %+v != %+v", s.Terms[i].Text, j, b[j], a[j])
			}
		}
	}
}

// TestValidateCatchesBlockCorruption: each way the overlay can be wrong
// — missing blocks, stale MaxDoc, an unsound (too low) bound, a slack
// (unattained) bound — must fail Validate with a descriptive error.
func TestValidateCatchesBlockCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		mutate  func(ti *TermInfo)
		errFrag string
	}{
		{"truncated overlay", func(ti *TermInfo) {
			ti.Blocks = ti.Blocks[:len(ti.Blocks)-1]
		}, "blocks for"},
		// The last block's MaxDoc feeds no later block's delta base, so
		// bumping it is pure overlay corruption (an earlier block's
		// MaxDoc would shift the next block's decoded documents and trip
		// the ordering check instead).
		{"stale MaxDoc", func(ti *TermInfo) {
			ti.Blocks[len(ti.Blocks)-1].MaxDoc++
		}, "MaxDoc"},
		{"unsound bound", func(ti *TermInfo) {
			ti.Blocks[0].Max /= 2
		}, "above block max"},
		{"slack bound", func(ti *TermInfo) {
			ti.Blocks[0].Max *= 2
		}, "attains"},
		{"bad width", func(ti *TermInfo) {
			ti.Blocks[0].DocW = 40
		}, "bit width"},
		{"bad offset", func(ti *TermInfo) {
			ti.Blocks[1].Off++
		}, "offset"},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			s := buildTestShard(t)
			// Pick a term with at least two blocks so truncation leaves one.
			var ti *TermInfo
			for i := range s.Terms {
				if s.Terms[i].NumBlocks() >= 2 {
					ti = &s.Terms[i]
					break
				}
			}
			if ti == nil {
				t.Fatal("no multi-block term in test shard")
			}
			c.mutate(ti)
			// Reseal so the checksum layer agrees with the mutated bytes:
			// this pins the *structural* overlay checks, which must catch
			// semantic corruption a buggy writer could produce with
			// perfectly consistent checksums. Checksum detection itself is
			// pinned in integrity_test.go.
			s.SealIntegrity()
			err := s.Validate()
			if err == nil {
				t.Fatalf("corruption %q passed Validate", c.name)
			}
			if !strings.Contains(err.Error(), c.errFrag) {
				t.Fatalf("corruption %q: error %q does not mention %q", c.name, err, c.errFrag)
			}
		})
	}
}

// TestValidateCatchesShardCorruption covers the non-block invariants:
// every mutation must be caught with an error naming the problem.
func TestValidateCatchesShardCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		mutate  func(s *Shard)
		errFrag string
	}{
		{"doc metadata", func(s *Shard) { s.NumDocs++ }, "metadata length"},
		{"dict size", func(s *Shard) { delete(s.dict, s.Terms[0].Text) }, "dict has"},
		{"dict target", func(s *Shard) {
			s.dict[s.Terms[0].Text], s.dict[s.Terms[1].Text] = s.dict[s.Terms[1].Text], s.dict[s.Terms[0].Text]
		}, "wrong term"},
		{"empty postings", func(s *Shard) {
			s.Terms[0].Packed = PackedPostings{}
			s.Terms[0].Blocks = nil
		}, "empty postings"},
		{"unsorted postings", func(s *Shard) {
			mutatePostings(&s.Terms[0], func(ps []Posting) { ps[0], ps[1] = ps[1], ps[0] })
		}, "out of order"},
		{"doc out of range", func(s *Shard) {
			mutatePostings(&s.Terms[0], func(ps []Posting) { ps[len(ps)-1].Doc = uint32(s.NumDocs) })
		}, "references doc"},
		{"zero tf", func(s *Shard) {
			mutatePostings(&s.Terms[0], func(ps []Posting) { ps[0].TF = 0 })
		}, "zero tf"},
		{"stats length", func(s *Shard) { s.Terms[0].Stats.PostingLen++ }, "stats posting length"},
		{"kth above max", func(s *Shard) { s.Terms[0].Stats.KthScore = s.Terms[0].Stats.MaxScore + 1 }, "kth score"},
		// MaxScore primes its threshold from KthScore: one ulp of
		// overstatement is a top-K document pruned, so one ulp must fail.
		{"kth one ulp up", func(s *Shard) {
			st := &s.Terms[0].Stats
			st.KthScore = math.Nextafter(st.KthScore, math.Inf(1))
		}, "0 postings attain it"},
		{"kth understated", func(s *Shard) { s.Terms[0].Stats.KthScore = s.Terms[0].Stats.MinScore }, "exceed it"},
		// A larger StatsK claims every KthScore is a lower rank's score
		// than it is — and would let MaxScore prime queries of a larger k.
		{"StatsK raised", func(s *Shard) { s.StatsK += 5 }, "-th highest"},
		{"NaN idf", func(s *Shard) { s.Terms[0].Stats.IDF = math.NaN() }, "invalid idf"},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			s := buildTestShard(t)
			c.mutate(s)
			// Reseal: the structural checks must catch these even when the
			// checksums are self-consistent (see integrity_test.go for the
			// checksum-mismatch paths).
			s.SealIntegrity()
			err := s.Validate()
			if err == nil {
				t.Fatalf("corruption %q passed Validate", c.name)
			}
			if !strings.Contains(err.Error(), c.errFrag) {
				t.Fatalf("corruption %q: error %q does not mention %q", c.name, err, c.errFrag)
			}
		})
	}
}
