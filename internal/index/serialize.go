package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"cottage/internal/wire"
)

// Shard file format 7, in the internal/wire idiom:
//
//	magic "COTTAGES", u32 format 7, u32 digest
//	header: u64 ID, u64 NumDocs, u64 StatsK, f64 AvgDocLen, f64 BM25.K1,
//	        f64 BM25.B, u32 n + n×u32 DocLens, u32 n + n×u64 GlobalIDs,
//	        u32 term count
//	per term, in term-ID (lexical) order, its metadata — str Text,
//	u64 Packed.N, the 21 TermStats fields (statFields: seven u64, then
//	fourteen f64), u32 n + n×(u32 MaxDoc, f64 Max, u32 Off, u8 DocW,
//	u8 TFW), u32 n + n×u32 Sums — then u32 n + n bytes of Packed.Data,
//	decoder pad included.
//
// The digest is the CRC32C of the header and every term's metadata and
// payload length, exactly as written (computeDigest); the block sums
// cover the payloads. The dictionary and norm table are rebuilt on load.
const (
	shardMagic  = "COTTAGES"
	shardFormat = 7
	statsLen    = 21 * 8
	blockLen    = 4 + 8 + 4 + 1 + 1
)

var le = binary.LittleEndian

// ErrShardFormat is any file without the format-7 magic: every gob-era
// shard (formats 3 to 6), and anything else.
var ErrShardFormat = errors.New("index: not a format-7 shard file; rebuild the shard with cottage-indexer")

// appendHeader appends the shard-wide fields.
func (s *Shard) appendHeader(dst []byte) []byte {
	dst = le.AppendUint64(le.AppendUint64(dst, uint64(s.ID)), uint64(s.NumDocs))
	dst = wire.AppendF64(le.AppendUint64(dst, uint64(s.StatsK)), s.AvgDocLen)
	dst = wire.AppendF64(wire.AppendF64(dst, s.BM25.K1), s.BM25.B)
	dst = wire.AppendSlice(dst, s.DocLens, le.AppendUint32)
	dst = wire.AppendSlice(dst, s.GlobalIDs, func(b []byte, g int64) []byte { return le.AppendUint64(b, uint64(g)) })
	return le.AppendUint32(dst, uint32(len(s.Terms)))
}

// statFields lists the term statistics in file order: the ints, then
// the floats.
func statFields(st *TermStats) ([7]*int, [14]*float64) {
	return [...]*int{&st.PostingLen, &st.DocsEverInTopK, &st.NumLocalMaxima, &st.NumMaximaAboveMean,
			&st.NumMaxScore, &st.DocsWithin5OfMax, &st.DocsWithin5OfKth},
		[...]*float64{&st.IDF, &st.MinScore, &st.Q1, &st.Mean, &st.Median, &st.GeoMean, &st.HarmMean,
			&st.Q3, &st.KthScore, &st.MaxScore, &st.Variance, &st.SumScore, &st.SumScore2, &st.EstMaxScore}
}

// appendMeta appends everything of the term but its payload bytes.
func (ti *TermInfo) appendMeta(dst []byte) []byte {
	dst = le.AppendUint64(wire.AppendString(dst, ti.Text), uint64(ti.Packed.N))
	ints, floats := statFields(&ti.Stats)
	for _, p := range ints {
		dst = le.AppendUint64(dst, uint64(*p))
	}
	for _, p := range floats {
		dst = wire.AppendF64(dst, *p)
	}
	dst = le.AppendUint32(dst, uint32(len(ti.Blocks)))
	for _, b := range ti.Blocks {
		dst = le.AppendUint32(wire.AppendF64(le.AppendUint32(dst, b.MaxDoc), b.Max), b.Off)
		dst = append(dst, b.DocW, b.TFW)
	}
	return le.AppendUint32(wire.AppendSlice(dst, ti.Sums, le.AppendUint32), uint32(len(ti.Packed.Data)))
}

// parseTerm reads what appendMeta and the payload wrote. The payload
// stays in place.
func (ti *TermInfo) parseTerm(r *wire.Reader) {
	ti.Text, ti.Packed.N = r.Str(), int(r.U64())
	ints, floats := statFields(&ti.Stats)
	for _, p := range ints {
		*p = int(r.U64())
	}
	for _, p := range floats {
		*p = r.F64()
	}
	ti.Blocks = make([]Block, r.Count(blockLen))
	for i := range ti.Blocks {
		ti.Blocks[i] = Block{MaxDoc: r.U32(), Max: r.F64(), Off: r.U32(), DocW: r.U8(), TFW: r.U8()}
	}
	ti.Sums, ti.Packed.Data = wire.Slice(r, 4, (*wire.Reader).U32), r.Bytes()
}

// Encode writes the shard in format 7. Two builds of the same documents
// encode to the same bytes: Finalize numbers terms in lexical order.
func (s *Shard) Encode(w io.Writer) error {
	_, err := w.Write(s.Append(nil))
	return err
}

// SaveFile writes the shard to path, creating or truncating it.
func (s *Shard) SaveFile(path string) error { return os.WriteFile(path, s.Append(nil), 0o666) }

// Append appends the shard's format-7 file to dst.
func (s *Shard) Append(dst []byte) []byte {
	if !s.HasChecksums() {
		// Shards built before the integrity plane (hand-constructed in
		// tests, mostly) are sealed on first write so no file ever lacks
		// checksums.
		s.SealIntegrity()
	}
	dst = s.appendHeader(le.AppendUint32(wire.AppendHeader(dst, shardMagic, shardFormat), s.Digest))
	for i := range s.Terms {
		dst = append(s.Terms[i].appendMeta(dst), s.Terms[i].Packed.Data...)
	}
	return dst
}

// ReadShard reads a shard written by Encode into one buffer and parses
// it with ParseShard.
func ReadShard(r io.Reader) (*Shard, error) {
	data, err := wire.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading shard: %w", err)
	}
	return ParseShard(data)
}

// ParseShard parses a format-7 file, verifies its integrity metadata and
// structure, and rebuilds its dictionary. Each term's packed payload
// stays a sub-slice of data, which the caller must not change after.
func ParseShard(data []byte) (*Shard, error) {
	r := wire.Reader{B: data}
	if !r.Header(shardMagic, shardFormat) {
		return nil, ErrShardFormat
	}
	s := &Shard{Digest: r.U32(), ID: int(r.U64()), NumDocs: int(r.U64()), StatsK: int(r.U64()),
		AvgDocLen: r.F64(), BM25: BM25Params{K1: r.F64(), B: r.F64()}}
	s.DocLens = wire.Slice(&r, 4, (*wire.Reader).U32)
	s.GlobalIDs = wire.Slice(&r, 8, func(r *wire.Reader) int64 { return int64(r.U64()) })
	// The smallest term record: empty text, N, the stats, four counts.
	s.Terms = make([]TermInfo, r.Count(4+8+statsLen+4*4))
	if r.Bad {
		return nil, fmt.Errorf("index: decoding shard: header overruns the file")
	}
	s.dict = make(map[string]int32, len(s.Terms))
	for i := range s.Terms {
		if s.Terms[i].parseTerm(&r); r.Bad {
			return nil, fmt.Errorf("index: decoding shard: term %d overruns the file", i)
		}
		s.dict[s.Terms[i].Text] = int32(i)
	}
	if len(r.B) != 0 {
		return nil, fmt.Errorf("index: decoding shard: %d trailing bytes", len(r.B))
	}
	s.buildNorms()
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

// LoadFile reads a shard previously written by SaveFile.
func LoadFile(path string) (*Shard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseShard(data)
}
