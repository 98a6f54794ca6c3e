package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wireOf round-trips a shard into its editable wire form so tests can
// corrupt one field at a time.
func wireOf(tb testing.TB, s *Shard) *shardWire {
	tb.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	var w shardWire
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		tb.Fatal(err)
	}
	return &w
}

func readWire(t *testing.T, w *shardWire) (*Shard, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return ReadShard(&buf)
}

// stampedWire is the test shard's wire form with Version overwritten —
// what ReadShard's version switch sees of a v3, v4 or v5 file.
func stampedWire(tb testing.TB, s *Shard, version int) []byte {
	tb.Helper()
	w := wireOf(tb, s)
	w.Version = version
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
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

// TestReadShardRefusesLegacyVersions: a v3, v4 or v5 file — one stamped
// so, and the genuine ones older indexers wrote, checked in as fuzz
// seeds — is refused with its version and the remedy named.
func TestReadShardRefusesLegacyVersions(t *testing.T) {
	s := buildTestShard(t)
	for _, c := range []struct {
		name    string
		data    []byte
		version int
	}{
		{"stamped v3", stampedWire(t, s, 3), 3},
		{"stamped v4", stampedWire(t, s, 4), 4},
		{"stamped v5", stampedWire(t, s, 5), 5},
		{"legacy-v3", corpusSeed(t, "legacy-v3"), 3},
		{"legacy-v4", corpusSeed(t, "legacy-v4"), 4},
		{"legacy-v5", corpusSeed(t, "legacy-v5"), 5},
	} {
		_, err := ReadShard(bytes.NewReader(c.data))
		if err == nil {
			t.Fatalf("%s: loaded", c.name)
		}
		if want := fmt.Sprintf("version %d", c.version); !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "cottage-indexer") {
			t.Errorf("%s: error %q does not name %q and the cottage-indexer rebuild", c.name, err, want)
		}
	}
	if _, err := ReadShard(bytes.NewReader(corpusSeed(t, "rot-v4"))); err == nil {
		t.Error("rot-v4: loaded")
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

func TestReadShardRejectsCorruptWire(t *testing.T) {
	s := buildTestShard(t)
	cases := []struct {
		name    string
		mutate  func(w *shardWire)
		errFrag string
	}{
		{"old version", func(w *shardWire) { w.Version = 2 }, "format version"},
		{"future version", func(w *shardWire) { w.Version = wireVersion + 1 }, "format version"},
		{"missing blocks", func(w *shardWire) { w.Blocks = w.Blocks[:1] }, "inconsistent term arrays"},
		{"missing stats", func(w *shardWire) { w.TermStats = w.TermStats[:1] }, "inconsistent term arrays"},
		{"missing packed payload", func(w *shardWire) { w.PackedData = w.PackedData[:1] }, "inconsistent term arrays"},
		{"corrupt packed payload", func(w *shardWire) { w.PackedData[0] = []byte{0xff} }, "checksum mismatch"},
		{"invalid shard", func(w *shardWire) { w.NumDocs++ }, "failed validation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := wireOf(t, s)
			c.mutate(w)
			_, err := readWire(t, w)
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
	if _, err := ReadShard(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage decoded successfully")
	}
	if _, err := ReadShard(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream decoded successfully")
	}
}

func TestSaveFileErrors(t *testing.T) {
	s := buildTestShard(t)
	if err := s.SaveFile(t.TempDir() + "/missing-dir/shard.gob"); err == nil {
		t.Fatal("SaveFile into a missing directory should fail")
	}
	// A directory path fails at create time on write-open.
	if err := s.SaveFile(t.TempDir()); err == nil {
		t.Fatal("SaveFile onto a directory should fail")
	}
}

func TestLoadFileRejectsCorruptFile(t *testing.T) {
	path := t.TempDir() + "/bad.gob"
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("corrupt file loaded successfully")
	}
}
