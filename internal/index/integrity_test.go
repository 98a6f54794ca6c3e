package index

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"
)

// corruptBlocks reports how many blocks lazy verification has flagged
// corrupt so far.
func corruptBlocks(s *Shard) int {
	if s.integ == nil {
		return 0
	}
	n := 0
	for i := range s.integ.corrupt {
		n += bits.OnesCount32(s.integ.corrupt[i].Load())
	}
	return n
}

// multiBlockTerm returns a term with at least two block-max blocks, so
// corruption tests can pin block-level localization.
func multiBlockTerm(t *testing.T, s *Shard) *TermInfo {
	t.Helper()
	for i := range s.Terms {
		if len(s.Terms[i].Blocks) > 1 {
			return &s.Terms[i]
		}
	}
	t.Fatal("no multi-block term in test shard")
	return nil
}

// TestSealedShardVerifiesClean: a freshly finalized shard passes every
// verifier — eager, per-block, and query-time — with zero mismatches.
func TestSealedShardVerifiesClean(t *testing.T) {
	s := buildTestShard(t)
	if !s.HasChecksums() {
		t.Fatal("Finalize did not seal integrity metadata")
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatalf("clean shard failed VerifyIntegrity: %v", err)
	}
	if err := s.VerifyQuery([]string{"alpha", "beta", "no-such-term"}); err != nil {
		t.Fatalf("clean shard failed VerifyQuery: %v", err)
	}
	for g := 0; g < s.TotalBlocks(); g++ {
		if err := s.VerifyBlockAt(g); err != nil {
			t.Fatalf("clean shard failed VerifyBlockAt(%d): %v", g, err)
		}
	}
	if corruptBlocks(s) != 0 {
		t.Fatalf("clean shard reports %d corrupt blocks", corruptBlocks(s))
	}
}

// TestBlockCorruptionLocalized: flipping one posting in block b of term
// T yields a CorruptionError naming exactly (shard, T, b) — from the
// per-block verifier, the query-time gate, and the whole-shard pass —
// and the verdict is memoized.
func TestBlockCorruptionLocalized(t *testing.T) {
	s := buildTestShard(t)
	ti := multiBlockTerm(t, s)
	ti.BlockData(1)[0] ^= 1 // bit-rot inside block 1's packed bytes
	s.ResetVerification()   // new scrub epoch: drop the trust memo

	err := s.VerifyBlock(ti, 1)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("VerifyBlock: got %v, want *CorruptionError", err)
	}
	if ce.Shard != s.ID || ce.Term != ti.Text || ce.Block != 1 {
		t.Fatalf("corruption mislocalized: %+v", ce)
	}
	if !IsCorruption(err) || !IsCorruption(fmt.Errorf("wrapped: %w", err)) {
		t.Fatal("IsCorruption failed on a (wrapped) CorruptionError")
	}
	// Sibling block 0 is untouched and must stay verifiable.
	if err := s.VerifyBlock(ti, 0); err != nil {
		t.Fatalf("clean sibling block failed: %v", err)
	}
	// Memoized: the verdict persists and the counter sticks at one.
	if err := s.VerifyBlock(ti, 1); !IsCorruption(err) {
		t.Fatalf("memoized re-verify: got %v", err)
	}
	if corruptBlocks(s) != 1 {
		t.Fatalf("corrupt blocks = %d, want 1", corruptBlocks(s))
	}
	// Corruption is sticky across scrub epochs and never double-counted.
	s.ResetVerification()
	if err := s.VerifyBlock(ti, 1); !IsCorruption(err) {
		t.Fatalf("post-reset re-verify: got %v", err)
	}
	if corruptBlocks(s) != 1 {
		t.Fatalf("corrupt blocks after reset = %d, want 1", corruptBlocks(s))
	}
	// The query-time gate refuses to let the term be scored.
	if err := s.VerifyQuery([]string{ti.Text}); !IsCorruption(err) {
		t.Fatalf("VerifyQuery: got %v, want corruption", err)
	}
	// Other terms still answer queries (corruption stays localized).
	for i := range s.Terms {
		if s.Terms[i].Text != ti.Text {
			if err := s.VerifyQuery([]string{s.Terms[i].Text}); err != nil {
				t.Fatalf("unrelated term %q blocked: %v", s.Terms[i].Text, err)
			}
		}
	}
	// Validate surfaces the same localized error.
	if err := s.Validate(); !IsCorruption(err) {
		t.Fatalf("Validate: got %v, want corruption", err)
	}
}

// TestDigestCatchesMetadataCorruption: rot outside the posting blocks
// (doc lengths, global IDs, the sums themselves) fails the whole-shard
// digest with Block = -1.
func TestDigestCatchesMetadataCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Shard)
	}{
		{"doc length", func(s *Shard) { s.DocLens[7]++ }},
		{"global id", func(s *Shard) { s.GlobalIDs[3] ^= 1 }},
		{"stored sum", func(s *Shard) { s.Terms[0].Sums[0] ^= 1 }},
		{"term stats", func(s *Shard) { s.Terms[0].Stats.KthScore *= 1.001 }},
		// What MaxScore primes its threshold from is under the digest to
		// the last bit: the smallest overstatement, and a raised StatsK.
		{"kth one ulp up", func(s *Shard) {
			st := &s.Terms[0].Stats
			st.KthScore = math.Nextafter(st.KthScore, math.Inf(1))
		}},
		{"StatsK raised", func(s *Shard) { s.StatsK++ }},
		{"block bound", func(s *Shard) { s.Terms[0].Blocks[0].Max *= 1.001 }},
		{"bm25 params", func(s *Shard) { s.BM25.B += 0.01 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := buildTestShard(t)
			c.mutate(s)
			err := s.VerifyIntegrity()
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				// A mutated block sum is caught either by the digest or by
				// the block whose sum changed — both are CorruptionErrors.
				t.Fatalf("%s: got %v, want *CorruptionError", c.name, err)
			}
			if !strings.Contains(err.Error(), "mismatch") {
				t.Fatalf("%s: error %q not a mismatch", c.name, err)
			}
		})
	}
}

// TestBlockAddressing: the global block index space tiles the shard
// exactly — BlockAt inverts the (term, block) → global mapping, and
// BlockBytes sums to the shard's canonical posting bytes.
func TestBlockAddressing(t *testing.T) {
	s := buildTestShard(t)
	g := 0
	total := 0
	for i := range s.Terms {
		ti := &s.Terms[i]
		for bi := range ti.Blocks {
			gotTi, gotBi := s.BlockAt(g)
			if gotTi != ti || gotBi != bi {
				t.Fatalf("BlockAt(%d) = (%q, %d), want (%q, %d)", g, gotTi.Text, gotBi, ti.Text, bi)
			}
			total += s.BlockBytes(g)
			g++
		}
	}
	if g != s.TotalBlocks() {
		t.Fatalf("walked %d blocks, TotalBlocks says %d", g, s.TotalBlocks())
	}
	if want := s.PostingBytes(); total != want {
		t.Fatalf("sum of BlockBytes %d != PostingBytes %d", total, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BlockAt out of range did not panic")
		}
	}()
	s.BlockAt(s.TotalBlocks())
}

// TestEncodeSealsUnsealedShard: a hand-constructed (never finalized)
// shard is sealed on first Encode, so no shard file lacks checksums.
func TestEncodeSealsUnsealedShard(t *testing.T) {
	s := buildTestShard(t)
	s.integ = nil // simulate a legacy in-memory build
	s.Digest = 0
	got, err := ReadShard(bytes.NewReader(encodeShard(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest == 0 || got.Digest != s.Digest {
		t.Fatalf("Encode wrote digest %08x, sealed %08x", got.Digest, s.Digest)
	}
	for i := range got.Terms {
		if ti := &got.Terms[i]; len(ti.Sums) != len(ti.Blocks) {
			t.Fatalf("term %q written with %d sums for %d blocks", ti.Text, len(ti.Sums), len(ti.Blocks))
		}
	}
}

// TestUnsealedShardSkipsVerification: verification on a never-sealed
// in-memory shard is a clean no-op (legacy builds keep working).
func TestUnsealedShardSkipsVerification(t *testing.T) {
	s := buildTestShard(t)
	s.integ = nil
	if s.HasChecksums() || s.TotalBlocks() != 0 || corruptBlocks(s) != 0 {
		t.Fatal("unsealed shard claims integrity state")
	}
	if err := s.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyQuery([]string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyBlock(&s.Terms[0], 0); err != nil {
		t.Fatal(err)
	}
}

// TestScrubberWalkFindsRot: walking every global block (the scrubber's
// iteration pattern) finds a mid-shard corruption exactly once.
func TestScrubberWalkFindsRot(t *testing.T) {
	s := buildTestShard(t)
	ti := multiBlockTerm(t, s)
	ti.BlockData(1)[3] ^= 4
	s.ResetVerification()

	found := 0
	for g := 0; g < s.TotalBlocks(); g++ {
		if err := s.VerifyBlockAt(g); err != nil {
			if !IsCorruption(err) {
				t.Fatalf("block %d: %v", g, err)
			}
			found++
		}
	}
	if found != 1 {
		t.Fatalf("scrub walk found %d corrupt blocks, want 1", found)
	}
	if corruptBlocks(s) != 1 {
		t.Fatalf("corrupt blocks = %d, want 1", corruptBlocks(s))
	}
}

// TestRepairBySwapClearsState: replacing the shard object with a clean
// re-read (the repair path) yields a shard with fresh verification
// state — the in-memory analogue of re-admitting a repaired replica.
func TestRepairBySwapClearsState(t *testing.T) {
	s := buildTestShard(t)
	var pristine bytes.Buffer
	if err := s.Encode(&pristine); err != nil {
		t.Fatal(err)
	}
	ti := multiBlockTerm(t, s)
	ti.BlockData(0)[0] ^= 1
	s.ResetVerification()
	if err := s.VerifyQuery([]string{ti.Text}); !IsCorruption(err) {
		t.Fatalf("corruption not detected: %v", err)
	}
	repaired, err := ReadShard(&pristine)
	if err != nil {
		t.Fatalf("repair source failed: %v", err)
	}
	if err := repaired.VerifyIntegrity(); err != nil {
		t.Fatalf("repaired shard dirty: %v", err)
	}
	if corruptBlocks(repaired) != 0 {
		t.Fatal("repaired shard inherited corruption state")
	}
}

// BenchmarkVerifyQueryWarm measures the steady-state query-time cost of
// the integrity gate: memoized verification is one atomic load per
// touched block, so it must be noise against evaluation itself.
func BenchmarkVerifyQueryWarm(b *testing.B) {
	s := buildTestShard(b)
	terms := []string{"alpha", "beta", "gamma"}
	if err := s.VerifyQuery(terms); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.VerifyQuery(terms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealIntegrity is the one-time load/build cost of checksumming
// a shard end to end (Finalize pays this once per shard).
func BenchmarkSealIntegrity(b *testing.B) {
	s := buildTestShard(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SealIntegrity()
	}
}

// BenchmarkReadShard pins the load-path cost: the packed payloads are
// adopted as-is and verified.
func BenchmarkReadShard(b *testing.B) {
	var buf bytes.Buffer
	if err := buildTestShard(b).Encode(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadShard(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
