package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cottage/internal/textgen"
)

// TestBuildShardsGolden pins the encoded bytes of every shard built from
// a small corpus. Shards carry the postings and the term statistics the
// predictors train on, so a faster build must encode exactly these bytes.
// The digests are of shard file format 7; the shards themselves are the
// ones the format-6 pins described, re-encoded.
func TestBuildShardsGolden(t *testing.T) {
	ccfg := textgen.DefaultConfig()
	ccfg.NumDocs = 2000
	ccfg.VocabSize = 3000
	ccfg.NumTopics = 16
	ccfg.TopicTermCount = 120
	corpus := textgen.Generate(ccfg)
	cfg := DefaultConfig()
	cfg.NumShards = 4
	one := DefaultConfig()
	one.NumShards = 1
	want := []string{
		"b0bb14ed5d96b0cadfb017564d9a6d98300aea644976c1f4f9e04302d5306dbe",
		"1548a36c7b6887c1b3a8df72999ac3290f287525b42f55003b1df74f71f45568",
		"02abb620211ea07e0f7212a75bc15f3edfa47501203682ef82804364c0f06a31",
		"821e71e5b3888995998c02d6073f49f0c9a93b9f5b51a2e1a72885e7735a6c59",
		// The whole corpus in one shard: its head terms' lists are long
		// enough for Finalize's radix sort.
		"5a256cd4da0d666adfb4b8f57e8c98b22bd5b563155ac339cb20134480d9e205",
	}
	// One worker builds every shard and Finalize inline; four
	// interleave shards and Finalize's chunks of terms.
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		shards := BuildShards(corpus, cfg, 5)
		shards = append(shards, BuildShardsRoundRobin(corpus, one)...)
		runtime.GOMAXPROCS(prev)
		if len(shards) != len(want) {
			t.Fatalf("%d shards, want %d", len(shards), len(want))
		}
		for i, s := range shards {
			var buf bytes.Buffer
			if err := s.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[i] {
				t.Errorf("GOMAXPROCS=%d: shard %d SHA-256 = %s, want %s", procs, i, got, want[i])
			}
		}
	}
}
