package search

import (
	"encoding/binary"
	"sync"
	"testing"

	"cottage/internal/index"
)

// fuzzShards caches the shards the fuzzer builds, keyed by seed: the
// fuzzer revisits the same few seeds thousands of times and shard
// construction dominates the iteration cost otherwise.
var fuzzShards sync.Map

// decodeAnytimeFuzz maps arbitrary bytes onto an anytime evaluation:
// shard seed, k, a pair of ordered posting budgets, and a term list
// (including absent terms). anytimeSeed writes this layout.
//
//	data[0:8]   shard seed (LE, folded into a small space for cache hits)
//	data[8]     k = 1 + b%24
//	data[9:11]  budget1 (LE)
//	data[11:13] budget2 = budget1 + extra (LE)
//	data[13]    term count n = 1 + b%4
//	data[14:]   term indices, one byte each (0 => an absent term)
const anytimeFuzzHeader = 14

func decodeAnytimeFuzz(data []byte) (seed uint64, k, budget1, budget2 int, terms []string, ok bool) {
	if len(data) < anytimeFuzzHeader {
		return 0, 0, 0, 0, nil, false
	}
	seed = binary.LittleEndian.Uint64(data[0:8]) % 1024
	k = 1 + int(data[8])%24
	budget1 = int(binary.LittleEndian.Uint16(data[9:11]))
	budget2 = budget1 + int(binary.LittleEndian.Uint16(data[11:13]))
	n := 1 + int(data[13])%4
	terms = make([]string, 0, n)
	for i := 0; i < n; i++ {
		b := byte(0)
		if 14+i < len(data) {
			b = data[14+i]
		}
		if b == 0 {
			terms = append(terms, "absent-term")
		} else {
			terms = append(terms, term(int(b)%150))
		}
	}
	return seed, k, budget1, budget2, terms, true
}

// anytimeSeed lays out one FuzzAnytimeDeadline input for
// decodeAnytimeFuzz: the term count byte is len(termIdx)-1.
func anytimeSeed(seed uint64, k byte, budget1, extra uint16, termIdx ...byte) []byte {
	data := make([]byte, anytimeFuzzHeader, anytimeFuzzHeader+len(termIdx))
	binary.LittleEndian.PutUint64(data[0:8], seed)
	data[8] = k
	binary.LittleEndian.PutUint16(data[9:11], budget1)
	binary.LittleEndian.PutUint16(data[11:13], extra)
	data[13] = byte(len(termIdx) - 1)
	return append(data, termIdx...)
}

// FuzzAnytimeDeadline drives Anytime with an arbitrary shard, query and
// deadline pair and checks the three guarantees no truncation point may
// break: no panic, no duplicate documents with every score exact, and
// monotone quality — a longer deadline never returns a worse top-K.
func FuzzAnytimeDeadline(f *testing.F) {
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x09\x10\x00\x40\x00\x02\x05\x0a"))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x2a\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\x03\x01\x02\x03"))
	// Budget 0: the deadline fires before any range, the empty truncated
	// answer whose bound must still cover the shard.
	f.Add(anytimeSeed(1, 9, 0, 0, 5, 10))
	// A budget beyond any shard's posting count: bitwise exhaustive, with
	// Terminated false.
	f.Add(anytimeSeed(42, 9, 0xffff, 0xffff, 1, 2, 3))
	// Mid-traversal truncations at two nearby budgets, where the
	// monotone-quality comparison can actually differ.
	f.Add(anytimeSeed(7, 4, 40, 25, 3, 3, 0, 17))
	// An absent-only query on the largest seed the decoder folds to.
	f.Add(anytimeSeed(1023, 24, 100, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		seed, k, budget1, budget2, terms, ok := decodeAnytimeFuzz(data)
		if !ok {
			return
		}
		v, hit := fuzzShards.Load(seed)
		if !hit {
			v, _ = fuzzShards.LoadOrStore(seed, buildRandomShard(t, seed))
		}
		s := v.(*index.Shard)
		ex := Exhaustive(s, terms, k)
		trueKth := 0.0
		if len(ex.Hits) == k {
			trueKth = ex.Hits[k-1].Score
		}
		sums := make([]float64, 2)
		for bi, budget := range []int{budget1, budget2} {
			b := budget
			r := Anytime(s, terms, k, func(st ExecStats) bool {
				return st.PostingsTraversed >= b
			})
			seen := make(map[uint32]bool, len(r.Hits))
			for i, h := range r.Hits {
				if seen[h.Local] {
					t.Fatalf("budget %d: duplicate doc %d", b, h.Local)
				}
				seen[h.Local] = true
				if want := recomputeScore(s, terms, h.Local); h.Score != want {
					t.Fatalf("budget %d: doc %d score %v, exact %v", b, h.Local, h.Score, want)
				}
				if i > 0 && (h.Score > r.Hits[i-1].Score ||
					(h.Score == r.Hits[i-1].Score && h.Local < r.Hits[i-1].Local)) {
					t.Fatalf("budget %d: hits out of order at %d", b, i)
				}
				sums[bi] += h.Score
			}
			if r.ScoreBound < trueKth {
				t.Fatalf("budget %d: ScoreBound %v < true k-th %v", b, r.ScoreBound, trueKth)
			}
			if !r.Terminated && !hitsIdentical(r.Hits, ex.Hits) {
				t.Fatalf("budget %d: untruncated result differs from exhaustive", b)
			}
		}
		if sums[1] < sums[0] {
			t.Fatalf("quality regressed: budget %d scored %v, budget %d scored %v",
				budget1, sums[0], budget2, sums[1])
		}
	})
}
