package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// shardWire is the gob-era shard file (formats 3 to 6): what the
// writers before format 7 encoded, kept here only to make such files.
type shardWire struct {
	Version       int
	ID            int
	NumDocs       int
	AvgDocLen     float64
	DocLens       []uint32
	GlobalIDs     []int64
	BM25          BM25Params
	StatsK        int
	TermTexts     []string
	TermStats     []TermStats
	PostingCounts []int
	PackedData    [][]byte
	Blocks        [][]Block
	BlockSums     [][]uint32
	Digest        uint32
}

// stampedWire is the test shard as a gob-era file stamped with version:
// with version 6, exactly the file the format-6 writer made of it.
func stampedWire(tb testing.TB, s *Shard, version int) []byte {
	tb.Helper()
	w := shardWire{
		Version: version, ID: s.ID, NumDocs: s.NumDocs, AvgDocLen: s.AvgDocLen, DocLens: s.DocLens,
		GlobalIDs: s.GlobalIDs, BM25: s.BM25, StatsK: s.StatsK, Digest: s.Digest,
	}
	for i := range s.Terms {
		t := &s.Terms[i]
		w.TermTexts = append(w.TermTexts, t.Text)
		w.TermStats = append(w.TermStats, t.Stats)
		w.PostingCounts = append(w.PostingCounts, t.Packed.N)
		w.PackedData = append(w.PackedData, t.Packed.Data)
		w.Blocks = append(w.Blocks, t.Blocks)
		w.BlockSums = append(w.BlockSums, t.Sums)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeShard is s's format-7 file.
func encodeShard(tb testing.TB, s *Shard) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corpusSeed reads one checked-in FuzzShardDecode seed's bytes.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzShardDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// TestReadShardRefusesLegacyVersions: a gob-era file — the test shard
// stamped v3, v4, v5 or v6, and the genuine ones older indexers wrote,
// checked in as fuzz seeds — is refused with ErrShardFormat, whose
// message names the cottage-indexer rebuild.
func TestReadShardRefusesLegacyVersions(t *testing.T) {
	s := buildTestShard(t)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"stamped v3", stampedWire(t, s, 3)},
		{"stamped v4", stampedWire(t, s, 4)},
		{"stamped v5", stampedWire(t, s, 5)},
		{"stamped v6", stampedWire(t, s, 6)},
		{"legacy-v3", corpusSeed(t, "legacy-v3")},
		{"legacy-v4", corpusSeed(t, "legacy-v4")},
		{"legacy-v5", corpusSeed(t, "legacy-v5")},
		{"legacy-v6", corpusSeed(t, "valid")},
		{"rot-v4", corpusSeed(t, "rot-v4")},
	} {
		_, err := ReadShard(bytes.NewReader(c.data))
		if !errors.Is(err, ErrShardFormat) || !strings.Contains(err.Error(), "cottage-indexer") {
			t.Errorf("%s: error %v, want ErrShardFormat naming the cottage-indexer rebuild", c.name, err)
		}
	}
}

// TestEncodeDeterministic: building the same documents again encodes to
// the same bytes. Add ranges over a map, so terms numbered in the order
// Add first met them would differ from build to build; Finalize numbers
// them in lexical order.
func TestEncodeDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := buildTestShard(t).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("build %d encodes differently from build 0", i)
		}
	}
}

// TestReadShardRejectsCorruptWire edits one region of a format-7 file
// at a time: the format number, a file that ends inside the last term's
// statistics, block overlay or payload, a payload byte, and a header
// field.
func TestReadShardRejectsCorruptWire(t *testing.T) {
	s := buildTestShard(t)
	size := len(encodeShard(t, s))
	// Offsets into the file: the format number and NumDocs in the fixed
	// prefix and header, term 0's payload, and the last term's record,
	// which ends the file.
	format := len(shardMagic)
	numDocs := format + 8 + 8
	payload := format + 8 + len(s.appendHeader(nil)) + len(s.Terms[0].appendMeta(nil))
	last := len(s.Terms) - 1
	lt := &s.Terms[last]
	lastPayload := size - len(lt.Packed.Data)
	stats := lastPayload - len(lt.appendMeta(nil)) + 4 + len(lt.Text) + 8
	blocks := stats + statsLen + 4
	overrun := fmt.Sprintf("term %d overruns", last)
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		errFrag string
	}{
		{"old version", func(b []byte) []byte { le.PutUint32(b[format:], 6); return b }, "not a format-7 shard"},
		{"future version", func(b []byte) []byte { le.PutUint32(b[format:], shardFormat+1); return b }, "not a format-7 shard"},
		{"missing blocks", func(b []byte) []byte { return b[:blocks+blockLen/2] }, overrun},
		{"missing stats", func(b []byte) []byte { return b[:stats+statsLen/2] }, overrun},
		{"missing packed payload", func(b []byte) []byte { return b[:lastPayload+1] }, overrun},
		{"corrupt packed payload", func(b []byte) []byte { b[payload] ^= 0xff; return b }, "checksum mismatch"},
		{"invalid shard", func(b []byte) []byte { b[numDocs]++; return b }, "failed validation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadShard(bytes.NewReader(c.mutate(encodeShard(t, s))))
			if err == nil {
				t.Fatalf("corruption %q decoded successfully", c.name)
			}
			if !strings.Contains(err.Error(), c.errFrag) {
				t.Fatalf("corruption %q: error %q does not mention %q", c.name, err, c.errFrag)
			}
		})
	}
}

func TestReadShardRejectsGarbage(t *testing.T) {
	if _, err := ReadShard(bytes.NewReader([]byte("not a shard file"))); err == nil {
		t.Fatal("garbage decoded successfully")
	}
	if _, err := ReadShard(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream decoded successfully")
	}
}

func TestSaveFileErrors(t *testing.T) {
	s := buildTestShard(t)
	if err := s.SaveFile(t.TempDir() + "/missing-dir/shard.bin"); err == nil {
		t.Fatal("SaveFile into a missing directory should fail")
	}
	// A directory path fails at create time on write-open.
	if err := s.SaveFile(t.TempDir()); err == nil {
		t.Fatal("SaveFile onto a directory should fail")
	}
}

func TestLoadFileRejectsCorruptFile(t *testing.T) {
	path := t.TempDir() + "/bad.bin"
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("corrupt file loaded successfully")
	}
}
