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
		"974b68cfb09010e306e72054a8f924fb9a8ed997416788b2502a7f4fb891fa2e",
		"4abdfb0c641bcfed8d7e1fe5d9eff601436ece747ea54170e7d755e550b5fc24",
		"1e82e7493b6264f735b11de787c89c58e77ebc3af1780378deb8b78c23d950e2",
		"6b73659d6642918f193068bbcc7d19c8ac5bf606bac8ff89e6afff55f838d38c",
		// The whole corpus in one shard: its head terms' lists are long
		// enough for Finalize's radix sort.
		"bef3c662e5c8fcb6b67414b9a9fa4fd3878557ef745fe6c384bdf7ed8993c58f",
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
