package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Data-integrity plane, index layer: every term's postings are
// checksummed per block-max block — CRC32C over the block's bit-packed
// payload bytes plus the header that governs its decode (delta base,
// MaxDoc, widths) — plus one whole-shard digest over everything else the
// shard file holds: its header and every term's metadata, per-block sums
// included.
// The sums are written with the shard (serialize.go), verified eagerly
// when a shard is loaded, and lazily at query time — a block whose bytes
// rotted since load is detected before any of its postings are scored.
// Detection is localized (shard, term, block) so the quarantine/repair
// machinery (internal/integrity, internal/rpc) can attribute and heal,
// instead of surfacing bit-rot as an arbitrary decode error or — worse —
// a quietly wrong merged top-K.

// castagnoli is the CRC32C polynomial table. Castagnoli is the standard
// storage-integrity polynomial (iSCSI, ext4, Btrfs) and has hardware
// support on amd64/arm64, so per-block sums cost a handful of ns.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptionError localizes one detected checksum mismatch. Block is the
// term-local block index, or -1 when the whole-shard digest (document
// metadata) mismatched rather than a posting block.
type CorruptionError struct {
	Shard int
	Term  string
	Block int
	Want  uint32 // the sealed (expected) checksum
	Got   uint32 // the checksum of the bytes actually present
}

// Error implements error with full localization — which shard, which
// term, which block — so a ledger entry or log line is actionable.
func (e *CorruptionError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("index: shard %d digest mismatch (want %08x, got %08x): shard metadata corrupt",
			e.Shard, e.Want, e.Got)
	}
	return fmt.Sprintf("index: shard %d term %q block %d checksum mismatch (want %08x, got %08x)",
		e.Shard, e.Term, e.Block, e.Want, e.Got)
}

// IsCorruption reports whether err (or anything it wraps) is a localized
// checksum mismatch, as opposed to a structural validation failure.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// integState is the shard's lazy query-time verification memo: one
// "verified" and one "corrupt" bit per block, flipped atomically on
// first touch so concurrent readers re-checksum each block at most a
// handful of times ever, and the steady-state query cost is one atomic
// load per touched block.
type integState struct {
	// off[t] is term t's first global block index; total blocks overall.
	off      []int
	total    int
	verified []atomic.Uint32
	corrupt  []atomic.Uint32
}

func (st *integState) bit(g int) (word int, mask uint32) { return g >> 5, 1 << (uint(g) & 31) }

// blockSum computes the CRC32C of one block — its decode header (delta
// base, MaxDoc, packed widths) followed by its packed payload bytes —
// the quantity sealed into TermInfo.Sums and recomputed by every
// verifier. Covering the header matters: a flipped width or base would
// change how the payload decodes without touching a payload byte.
// (Bytes in the simdpack pad are outside every block's range; flipping
// them is undetected but also harmless — the decode mask keeps them out
// of every value.)
func (s *Shard) blockSum(ti *TermInfo, bi int) uint32 {
	if bi >= len(ti.Blocks) {
		return 0
	}
	blk := &ti.Blocks[bi]
	var hdr [10]byte
	binary.LittleEndian.PutUint32(hdr[0:4], ti.blockBase(bi))
	binary.LittleEndian.PutUint32(hdr[4:8], blk.MaxDoc)
	hdr[8] = blk.DocW
	hdr[9] = blk.TFW
	// crc32.Update on hdr[:] would move hdr to the heap (the slice
	// escapes through the package's dispatch), one allocation per block
	// sealed or verified; ten bytes fold on the table instead.
	crc := ^uint32(0)
	for _, b := range hdr {
		crc = castagnoli[byte(crc)^b] ^ crc>>8
	}
	crc = ^crc
	lo := int(blk.Off)
	hi := lo + ti.blockPayloadBytes(bi)
	// Clamp: a corrupted shard can declare offsets past its payload, and
	// the verifier must return a mismatch there, not panic.
	if n := len(ti.Packed.Data); hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return crc32.Update(crc, castagnoli, ti.Packed.Data[lo:hi])
}

// computeDigest is the whole-shard CRC32C: the header and every term's
// metadata (text, posting count, statistics, block overlay, block sums,
// payload length) exactly as Encode writes them, appended into one
// reused buffer. The block sums cover the payloads, so a flipped bit in
// a shard file fails a block sum or the digest, or the format's own
// framing, unless it lands in a payload's decoder pad, which no decode
// reads.
func (s *Shard) computeDigest() uint32 {
	buf := s.appendHeader(make([]byte, 0, 64+4*len(s.DocLens)+8*len(s.GlobalIDs)))
	crc := crc32.Update(0, castagnoli, buf)
	for i := range s.Terms {
		buf = s.Terms[i].appendMeta(buf[:0])
		crc = crc32.Update(crc, castagnoli, buf)
	}
	return crc
}

// SealIntegrity computes and installs the shard's per-block checksums
// and whole-shard digest from its current in-memory contents, and resets
// the lazy-verification memo. Finalize seals every built shard, and
// Encode seals one built by hand.
func (s *Shard) SealIntegrity() {
	for i := range s.Terms {
		ti := &s.Terms[i]
		if len(ti.Sums) != len(ti.Blocks) {
			ti.Sums = make([]uint32, len(ti.Blocks))
		}
		for bi := range ti.Blocks {
			ti.Sums[bi] = s.blockSum(ti, bi)
		}
	}
	s.Digest = s.computeDigest()
	s.initIntegState()
}

// initIntegState builds the lazy-verification memo from the shard's
// existing Sums without recomputing them. ReadShard uses this directly:
// resealing there would overwrite the on-disk checksums and blind eager
// verification to file corruption.
func (s *Shard) initIntegState() {
	total := 0
	off := make([]int, len(s.Terms)+1)
	for i := range s.Terms {
		off[i] = total
		total += len(s.Terms[i].Blocks)
	}
	off[len(s.Terms)] = total
	words := (total + 31) / 32
	s.integ = &integState{
		off:      off,
		total:    total,
		verified: make([]atomic.Uint32, words),
		corrupt:  make([]atomic.Uint32, words),
	}
}

// HasChecksums reports whether the shard carries sealed integrity
// metadata (always true after Finalize or a successful load).
func (s *Shard) HasChecksums() bool { return s.integ != nil }

// TotalBlocks returns how many posting blocks the shard holds across all
// terms — the scrubber's iteration space.
func (s *Shard) TotalBlocks() int {
	if s.integ == nil {
		return 0
	}
	return s.integ.total
}

// BlockAt translates a global block index (0..TotalBlocks) into its
// term and term-local block index.
func (s *Shard) BlockAt(g int) (ti *TermInfo, bi int) {
	st := s.integ
	if st == nil || g < 0 || g >= st.total {
		panic(fmt.Sprintf("index: block %d out of %d", g, s.TotalBlocks()))
	}
	// Binary search the offset table for the owning term.
	lo, hi := 0, len(s.Terms)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if st.off[mid] <= g {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return &s.Terms[lo], g - st.off[lo]
}

// BlockBytes returns the checksummed byte size of global block g — its
// 10-byte decode header plus its packed payload — what the scrubber
// charges against its bytes/sec budget.
func (s *Shard) BlockBytes(g int) int {
	ti, bi := s.BlockAt(g)
	return 10 + ti.blockPayloadBytes(bi)
}

// globalBlock returns term ti's block bi as a global block index, or -1
// when the shard's own bookkeeping can't be trusted to map it (e.g. a
// corrupted dictionary) — the caller then verifies without memoizing.
func (s *Shard) globalBlock(ti *TermInfo, bi int) int {
	t, ok := s.dict[ti.Text]
	if !ok || int(t) >= len(s.Terms) || &s.Terms[t] != ti {
		return -1
	}
	g := s.integ.off[t] + bi
	if g < 0 || g >= s.integ.total {
		return -1
	}
	return g
}

// VerifyBlock re-checksums term ti's block bi against its sealed sum,
// memoizing the verdict: the first call per block pays the CRC, later
// calls are one atomic load. A mismatch returns a *CorruptionError and
// is remembered — once a block is known corrupt it stays flagged until
// the shard is re-sealed (repair replaces the whole shard object).
func (s *Shard) VerifyBlock(ti *TermInfo, bi int) error {
	st := s.integ
	if st == nil {
		return nil // unsealed (legacy in-memory build): nothing to check
	}
	if bi >= len(ti.Sums) {
		return fmt.Errorf("index: term %q has %d checksums for %d blocks", ti.Text, len(ti.Sums), len(ti.Blocks))
	}
	g := s.globalBlock(ti, bi)
	if g < 0 {
		// Unmappable block (corrupt bookkeeping): verify without memoizing.
		if got := s.blockSum(ti, bi); got != ti.Sums[bi] {
			return &CorruptionError{Shard: s.ID, Term: ti.Text, Block: bi, Want: ti.Sums[bi], Got: got}
		}
		return nil
	}
	w, mask := st.bit(g)
	if st.verified[w].Load()&mask != 0 {
		if st.corrupt[w].Load()&mask != 0 {
			return &CorruptionError{Shard: s.ID, Term: ti.Text, Block: bi, Want: ti.Sums[bi], Got: s.blockSum(ti, bi)}
		}
		return nil
	}
	got := s.blockSum(ti, bi)
	if got != ti.Sums[bi] {
		for {
			old := st.corrupt[w].Load()
			if st.corrupt[w].CompareAndSwap(old, old|mask) {
				break
			}
		}
		s.markVerified(w, mask)
		return &CorruptionError{Shard: s.ID, Term: ti.Text, Block: bi, Want: ti.Sums[bi], Got: got}
	}
	s.markVerified(w, mask)
	return nil
}

func (s *Shard) markVerified(w int, mask uint32) {
	st := s.integ
	for {
		old := st.verified[w].Load()
		if st.verified[w].CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// VerifyBlockAt is VerifyBlock by global block index — the scrubber's
// entry point.
func (s *Shard) VerifyBlockAt(g int) error {
	ti, bi := s.BlockAt(g)
	return s.VerifyBlock(ti, bi)
}

// ResetVerification clears the lazy-verification memo so subsequent
// verifies re-checksum their blocks. The scrubber calls this at the
// start of each scrub epoch: rot that appears *after* a block was first
// verified would otherwise hide behind the memo forever. Blocks already
// known corrupt stay flagged — corruption is sticky until the shard
// object is replaced by repair.
func (s *Shard) ResetVerification() {
	st := s.integ
	if st == nil {
		return
	}
	for w := range st.verified {
		for {
			old := st.verified[w].Load()
			keep := old & st.corrupt[w].Load()
			if st.verified[w].CompareAndSwap(old, keep) {
				break
			}
		}
	}
}

// VerifyQuery lazily verifies every block of every query term present in
// the shard, returning the first localized mismatch. This is the
// query-time integrity gate: an ISN calls it before evaluation, so a
// mismatched block is never scored — the query is answered by a sibling
// replica while this one quarantines and repairs. Memoization makes the
// warm cost one atomic load per block of the query's terms.
func (s *Shard) VerifyQuery(terms []string) error {
	if s.integ == nil {
		return nil
	}
	for _, t := range terms {
		ti, ok := s.Lookup(t)
		if !ok {
			continue
		}
		for bi := range ti.Blocks {
			if err := s.VerifyBlock(ti, bi); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyIntegrity re-checksums the whole shard — digest first (document
// metadata), then every posting block — returning the first localized
// mismatch. ReadShard runs it eagerly on every load; the indexer's
// -verify pass and tests run it on demand.
func (s *Shard) VerifyIntegrity() error {
	if s.integ == nil {
		return nil
	}
	if got := s.computeDigest(); got != s.Digest {
		return &CorruptionError{Shard: s.ID, Block: -1, Want: s.Digest, Got: got}
	}
	for i := range s.Terms {
		ti := &s.Terms[i]
		if len(ti.Sums) != len(ti.Blocks) {
			return fmt.Errorf("index: term %q has %d checksums for %d blocks", ti.Text, len(ti.Sums), len(ti.Blocks))
		}
		for bi := range ti.Blocks {
			if err := s.VerifyBlock(ti, bi); err != nil {
				return err
			}
		}
	}
	return nil
}

// PostingBytes returns the checksummed byte size of the shard's
// postings — the sum of every block's header-plus-payload, exactly
// Σ BlockBytes — the scrub-pacing denominator: a scrubber at B
// bytes/sec revisits every block once per PostingBytes/B seconds.
func (s *Shard) PostingBytes() int {
	n := 0
	for i := range s.Terms {
		ti := &s.Terms[i]
		for bi := range ti.Blocks {
			n += 10 + ti.blockPayloadBytes(bi)
		}
	}
	return n
}

// PackedPostingBytes returns the resident byte size of the shard's
// packed postings payloads (including per-term decoder pad) — the
// quantity the indexer's -memstats report compares against the 8
// bytes/posting of the unpacked representation.
func (s *Shard) PackedPostingBytes() int {
	n := 0
	for i := range s.Terms {
		n += len(s.Terms[i].Packed.Data)
	}
	return n
}

// NumPostings returns the shard's total posting count across all terms.
func (s *Shard) NumPostings() int {
	n := 0
	for i := range s.Terms {
		n += s.Terms[i].Packed.N
	}
	return n
}
