package index

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// shardWire is the gob wire form of a Shard. Postings travel in their
// resident bit-packed block form (PackedData), so load is a handful of
// slice adoptions, no transcoding. The dictionary is rebuilt on load
// rather than serialized.
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
	// PackedData is the postings payload: each term's bit-packed block
	// payloads plus decoder pad, exactly TermInfo.Packed.Data.
	PackedData [][]byte
	// Blocks[term] is the term's block overlay: the packed-payload
	// geometry (Off, DocW, TFW) alongside MaxDoc/Max.
	Blocks [][]Block
	// BlockSums[term][block] is the per-block CRC32C and Digest the
	// whole-shard digest over header+packed payload (see integrity.go).
	BlockSums [][]uint32
	Digest    uint32
}

// wireVersion is the one shard format ReadShard accepts. ReadShard
// refuses the older ones it can name and gives the remedy: versions 3
// and 4 held delta-varint postings, and version 5 also carried a
// quantized copy of every block bound and optional term positions.
const wireVersion = 6

// Encode serializes the shard with encoding/gob in the current format.
// Two builds of the same documents encode to the same bytes: Finalize
// numbers terms in lexical order.
func (s *Shard) Encode(w io.Writer) error {
	if !s.HasChecksums() {
		// Shards built before the integrity plane (hand-constructed in
		// tests, mostly) are sealed on first write so no file ever lacks
		// checksums.
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
	for i := range s.Terms {
		t := &s.Terms[i]
		wire.TermTexts = append(wire.TermTexts, t.Text)
		wire.TermStats = append(wire.TermStats, t.Stats)
		wire.PostingCounts = append(wire.PostingCounts, t.Packed.N)
		wire.PackedData = append(wire.PackedData, t.Packed.Data)
		wire.Blocks = append(wire.Blocks, t.Blocks)
		wire.BlockSums = append(wire.BlockSums, t.Sums)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// ReadShard deserializes a shard written by Encode, verifies its
// integrity metadata, and rebuilds its dictionary.
func ReadShard(r io.Reader) (*Shard, error) {
	var w shardWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("index: decoding shard: %w", err)
	}
	switch w.Version {
	case wireVersion:
	case 3, 4, 5:
		return nil, fmt.Errorf("index: shard format version %d is no longer read (want %d); rebuild the shard with cottage-indexer",
			w.Version, wireVersion)
	default:
		return nil, fmt.Errorf("index: unsupported shard format version %d (want %d)", w.Version, wireVersion)
	}
	if len(w.TermTexts) != len(w.TermStats) ||
		len(w.TermTexts) != len(w.PostingCounts) ||
		len(w.TermTexts) != len(w.PackedData) ||
		len(w.TermTexts) != len(w.Blocks) {
		return nil, fmt.Errorf("index: inconsistent term arrays in shard file")
	}
	if len(w.BlockSums) != len(w.TermTexts) {
		return nil, fmt.Errorf("index: shard has %d checksum arrays for %d terms", len(w.BlockSums), len(w.TermTexts))
	}
	s := &Shard{
		ID:        w.ID,
		NumDocs:   w.NumDocs,
		AvgDocLen: w.AvgDocLen,
		DocLens:   w.DocLens,
		GlobalIDs: w.GlobalIDs,
		BM25:      w.BM25,
		StatsK:    w.StatsK,
		Terms:     make([]TermInfo, len(w.TermTexts)),
		Digest:    w.Digest,
	}
	s.dict = make(map[string]int32, len(s.Terms))
	s.buildNorms()
	for i := range s.Terms {
		s.Terms[i] = TermInfo{
			Text:   w.TermTexts[i],
			Packed: PackedPostings{N: w.PostingCounts[i], Data: w.PackedData[i]},
			Stats:  w.TermStats[i],
			Blocks: w.Blocks[i],
			Sums:   w.BlockSums[i],
		}
		s.dict[w.TermTexts[i]] = int32(i)
	}
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
