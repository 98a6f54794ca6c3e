package index

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// shardWire is the gob wire form of a Shard. Since wire v5 postings
// travel in their resident bit-packed block form (PackedData) — load is
// a handful of slice adoptions, no transcoding — while v4/v3 files
// carry delta-varint blobs (PostingBlobs) that are verified against
// their own integrity metadata and then repacked on load. The
// dictionary is rebuilt on load rather than serialized.
type shardWire struct {
	Version   int
	ID        int
	NumDocs   int
	AvgDocLen float64
	DocLens   []uint32
	GlobalIDs []int64
	BM25      BM25Params
	StatsK    int

	TermTexts     []string
	TermStats     []TermStats
	PostingCounts []int
	// PostingBlobs is the v3/v4 postings payload: delta-varint encoded
	// (doc, tf) pairs. Nil in v5 files.
	PostingBlobs [][]byte
	// PackedData is the v5 postings payload: each term's bit-packed
	// block payloads plus decoder pad, exactly TermInfo.Packed.Data.
	// Nil in v3/v4 files.
	PackedData [][]byte
	// Positions is nil for non-positional shards; otherwise
	// Positions[term][posting] lists token offsets.
	Positions [][][]uint32
	// Blocks[term] is the term's block overlay. v5 blocks carry the
	// packed-payload geometry (Off, DocW, TFW) and quantized bound
	// (QMax) alongside MaxDoc/Max; v3/v4 blocks carry MaxDoc/Max only.
	Blocks [][]Block
	// BlockSums[term][block] is the per-block CRC32C and Digest the
	// whole-shard digest (v4: over canonical doc/tf pairs; v5: over
	// header+packed payload — see integrity.go). Both are gob
	// zero-valued when decoding a v3 file and synthesized on upgrade.
	BlockSums [][]uint32
	Digest    uint32
}

const wireVersion = 5

// wireVersionV4 is the previous format — delta-varint postings with
// integrity metadata over their canonical doc/tf byte form. Still
// accepted by ReadShard: the file's own sums and digest are verified
// first, then the postings are repacked and resealed as v5.
const wireVersionV4 = 4

// wireVersionV3 is the pre-checksum format, still accepted by
// ReadShard: integrity metadata is synthesized on upgrade so every
// loaded shard is scrubbable and query-time verified regardless of its
// on-disk vintage.
const wireVersionV3 = 3

// Encode serializes the shard with encoding/gob in the current (v5)
// format.
func (s *Shard) Encode(w io.Writer) error {
	if !s.HasChecksums() {
		// Shards built before the integrity plane (hand-constructed in
		// tests, mostly) are sealed on first write so no v5 file ever
		// lacks checksums.
		s.SealIntegrity()
	}
	wire := shardWire{
		Version:   wireVersion,
		ID:        s.ID,
		NumDocs:   s.NumDocs,
		AvgDocLen: s.AvgDocLen,
		DocLens:   s.DocLens,
		GlobalIDs: s.GlobalIDs,
		BM25:      s.BM25,
		StatsK:    s.StatsK,
		Digest:    s.Digest,
	}
	positional := s.HasPositions()
	if positional {
		wire.Positions = make([][][]uint32, 0, len(s.Terms))
	}
	for i := range s.Terms {
		t := &s.Terms[i]
		wire.TermTexts = append(wire.TermTexts, t.Text)
		wire.TermStats = append(wire.TermStats, t.Stats)
		wire.PostingCounts = append(wire.PostingCounts, t.Packed.N)
		wire.PackedData = append(wire.PackedData, t.Packed.Data)
		wire.Blocks = append(wire.Blocks, t.Blocks)
		wire.BlockSums = append(wire.BlockSums, t.Sums)
		if positional {
			wire.Positions = append(wire.Positions, t.Positions)
		}
	}
	return gob.NewEncoder(w).Encode(wire)
}

// EncodeLegacy serializes the shard in an older wire format — v4
// (varint postings + legacy integrity metadata) or v3 (varint postings,
// no integrity metadata). Tests and corpus generators use it to produce
// genuine old-format files; production writes are always current.
func (s *Shard) EncodeLegacy(w io.Writer, version int) error {
	if version != wireVersionV3 && version != wireVersionV4 {
		return fmt.Errorf("index: EncodeLegacy supports versions %d and %d, not %d", wireVersionV3, wireVersionV4, version)
	}
	wire := shardWire{
		Version:   version,
		ID:        s.ID,
		NumDocs:   s.NumDocs,
		AvgDocLen: s.AvgDocLen,
		DocLens:   s.DocLens,
		GlobalIDs: s.GlobalIDs,
		BM25:      s.BM25,
		StatsK:    s.StatsK,
	}
	positional := s.HasPositions()
	if positional {
		wire.Positions = make([][][]uint32, 0, len(s.Terms))
	}
	for i := range s.Terms {
		t := &s.Terms[i]
		ps := t.AllPostings()
		wire.TermTexts = append(wire.TermTexts, t.Text)
		wire.TermStats = append(wire.TermStats, t.Stats)
		wire.PostingCounts = append(wire.PostingCounts, len(ps))
		wire.PostingBlobs = append(wire.PostingBlobs, EncodePostings(ps))
		// Legacy blocks carry only the bound fields; the geometry fields
		// stay zero, which gob omits — byte-compatible with old writers.
		blocks := make([]Block, len(t.Blocks))
		for bi, b := range t.Blocks {
			blocks[bi] = Block{MaxDoc: b.MaxDoc, Max: b.Max}
		}
		wire.Blocks = append(wire.Blocks, blocks)
		if version == wireVersionV4 {
			sums := make([]uint32, len(t.Blocks))
			for bi := range sums {
				sums[bi] = legacyBlockSum(ps, bi)
			}
			wire.BlockSums = append(wire.BlockSums, sums)
		}
		if positional {
			wire.Positions = append(wire.Positions, t.Positions)
		}
	}
	if version == wireVersionV4 {
		wire.Digest = legacyShardDigest(&wire)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// legacyBlockSum is the v4 per-block checksum: CRC32C over the block's
// postings as little-endian doc/tf pairs, clamped the way the v4
// verifier clamped.
func legacyBlockSum(ps []Posting, bi int) uint32 {
	lo := bi * BlockSize
	hi := lo + BlockSize
	if hi > len(ps) {
		hi = len(ps)
	}
	if lo > hi {
		lo = hi
	}
	var buf [8]byte
	crc := uint32(0)
	for _, p := range ps[lo:hi] {
		binary.LittleEndian.PutUint32(buf[0:4], p.Doc)
		binary.LittleEndian.PutUint32(buf[4:8], p.TF)
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// legacyShardDigest is the v4 whole-shard digest, computed from the
// wire form: the same fold computeDigest performed before v5 (no
// posting count, MaxDoc/Max only per block).
func legacyShardDigest(w *shardWire) uint32 {
	var d digestWriter
	d.foldShardHeader(w.ID, w.NumDocs, w.StatsK, w.AvgDocLen, w.BM25, w.DocLens, w.GlobalIDs)
	for i := range w.TermTexts {
		d.text(w.TermTexts[i])
		if i < len(w.BlockSums) {
			for _, sum := range w.BlockSums[i] {
				d.u32(sum)
			}
		}
		d.foldStats(&w.TermStats[i])
		if i < len(w.Blocks) {
			for _, b := range w.Blocks[i] {
				d.u32(b.MaxDoc)
				d.f64(b.Max)
			}
		}
		if w.Positions != nil && i < len(w.Positions) {
			d.foldPositions(w.Positions[i])
		}
	}
	return d.crc
}

// ReadShard deserializes a shard written by Encode (or EncodeLegacy),
// verifies its integrity metadata, and rebuilds its dictionary. Legacy
// (v3/v4) postings are verified in their own format first, then
// repacked into the v5 block layout and resealed.
func ReadShard(r io.Reader) (*Shard, error) {
	var w shardWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("index: decoding shard: %w", err)
	}
	switch w.Version {
	case wireVersion:
		return readShardV5(&w)
	case wireVersionV4, wireVersionV3:
		return readShardLegacy(&w)
	default:
		return nil, fmt.Errorf("index: unsupported shard format version %d (want %d, %d or %d)",
			w.Version, wireVersionV3, wireVersionV4, wireVersion)
	}
}

// shardSkeleton builds the Shard carcass shared by both load paths.
func shardSkeleton(w *shardWire) *Shard {
	s := &Shard{
		ID:        w.ID,
		NumDocs:   w.NumDocs,
		AvgDocLen: w.AvgDocLen,
		DocLens:   w.DocLens,
		GlobalIDs: w.GlobalIDs,
		BM25:      w.BM25,
		StatsK:    w.StatsK,
		Terms:     make([]TermInfo, len(w.TermTexts)),
	}
	s.dict = make(map[string]int32, len(s.Terms))
	s.buildNorms()
	return s
}

func attachPositions(s *Shard, w *shardWire, i int) error {
	if w.Positions == nil {
		return nil
	}
	if len(w.Positions) != len(w.TermTexts) {
		return fmt.Errorf("index: positional arrays inconsistent in shard file")
	}
	s.Terms[i].Positions = w.Positions[i]
	return nil
}

func readShardV5(w *shardWire) (*Shard, error) {
	if len(w.TermTexts) != len(w.TermStats) ||
		len(w.TermTexts) != len(w.PostingCounts) ||
		len(w.TermTexts) != len(w.PackedData) ||
		len(w.TermTexts) != len(w.Blocks) {
		return nil, fmt.Errorf("index: inconsistent term arrays in shard file")
	}
	if len(w.BlockSums) != len(w.TermTexts) {
		return nil, fmt.Errorf("index: v5 shard has %d checksum arrays for %d terms", len(w.BlockSums), len(w.TermTexts))
	}
	s := shardSkeleton(w)
	for i := range s.Terms {
		s.Terms[i] = TermInfo{
			Text:   w.TermTexts[i],
			Packed: PackedPostings{N: w.PostingCounts[i], Data: w.PackedData[i]},
			Stats:  w.TermStats[i],
			Blocks: w.Blocks[i],
			Sums:   w.BlockSums[i],
		}
		if err := attachPositions(s, w, i); err != nil {
			return nil, err
		}
		s.dict[w.TermTexts[i]] = int32(i)
	}
	s.Digest = w.Digest
	// Build the verification memo from the stored sums — NOT
	// SealIntegrity, which would recompute them and mask corruption.
	s.initIntegState()
	// Validate verifies the stored checksums eagerly (digest, then every
	// block) before the structural invariants — a rotted file fails here
	// with a localized *CorruptionError — and checks the packed geometry
	// before the first decode.
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("index: loaded shard failed validation: %w", err)
	}
	return s, nil
}

func readShardLegacy(w *shardWire) (*Shard, error) {
	if len(w.TermTexts) != len(w.TermStats) ||
		len(w.TermTexts) != len(w.PostingCounts) ||
		len(w.TermTexts) != len(w.PostingBlobs) ||
		len(w.TermTexts) != len(w.Blocks) {
		return nil, fmt.Errorf("index: inconsistent term arrays in shard file")
	}
	if w.Version == wireVersionV4 && len(w.BlockSums) != len(w.TermTexts) {
		return nil, fmt.Errorf("index: v4 shard has %d checksum arrays for %d terms", len(w.BlockSums), len(w.TermTexts))
	}
	postings := make([][]Posting, len(w.TermTexts))
	for i := range w.TermTexts {
		ps, err := DecodePostings(w.PostingBlobs[i], w.PostingCounts[i])
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", w.TermTexts[i], err)
		}
		postings[i] = ps
	}
	if w.Version == wireVersionV4 {
		// Verify the file against its own (v4) integrity metadata before
		// transcoding anything: digest first, then every block sum, so a
		// rotted legacy file fails with the same localized errors it
		// always did.
		if err := verifyLegacy(w, postings); err != nil {
			return nil, fmt.Errorf("index: loaded shard failed validation: %w", err)
		}
	}
	s := shardSkeleton(w)
	for i := range s.Terms {
		packed, blocks := packPostings(postings[i])
		if len(blocks) != len(w.Blocks[i]) {
			return nil, fmt.Errorf("index: loaded shard failed validation: index: term %q has %d block-max blocks, want %d",
				w.TermTexts[i], len(w.Blocks[i]), len(blocks))
		}
		maxScore := w.TermStats[i].MaxScore
		for bi := range blocks {
			if blocks[bi].MaxDoc != w.Blocks[i][bi].MaxDoc {
				return nil, fmt.Errorf("index: loaded shard failed validation: index: term %q block %d MaxDoc %d != last posting doc %d",
					w.TermTexts[i], bi, w.Blocks[i][bi].MaxDoc, blocks[bi].MaxDoc)
			}
			blocks[bi].Max = w.Blocks[i][bi].Max
			blocks[bi].QMax = quantizeBound(blocks[bi].Max, maxScore)
		}
		s.Terms[i] = TermInfo{
			Text:   w.TermTexts[i],
			Packed: packed,
			Stats:  w.TermStats[i],
			Blocks: blocks,
		}
		if err := attachPositions(s, w, i); err != nil {
			return nil, err
		}
		s.dict[w.TermTexts[i]] = int32(i)
	}
	// The legacy metadata verified (or never existed); reseal in the v5
	// scheme so the shard is scrubbable and query-time verified exactly
	// like a native one.
	s.SealIntegrity()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("index: loaded shard failed validation: %w", err)
	}
	return s, nil
}

// verifyLegacy checks a v4 file's digest and per-block checksums in
// their original definitions (canonical doc/tf bytes).
func verifyLegacy(w *shardWire, postings [][]Posting) error {
	if got := legacyShardDigest(w); got != w.Digest {
		return &CorruptionError{Shard: w.ID, Block: -1, Want: w.Digest, Got: got}
	}
	for i := range w.TermTexts {
		if len(w.BlockSums[i]) != len(w.Blocks[i]) {
			return fmt.Errorf("index: term %q has %d checksums for %d blocks",
				w.TermTexts[i], len(w.BlockSums[i]), len(w.Blocks[i]))
		}
		for bi := range w.Blocks[i] {
			if got := legacyBlockSum(postings[i], bi); got != w.BlockSums[i][bi] {
				return &CorruptionError{Shard: w.ID, Term: w.TermTexts[i], Block: bi, Want: w.BlockSums[i][bi], Got: got}
			}
		}
	}
	return nil
}

// SaveFile writes the shard to path, creating or truncating it.
func (s *Shard) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := s.Encode(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a shard previously written by SaveFile.
func LoadFile(path string) (*Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadShard(bufio.NewReader(f))
}
