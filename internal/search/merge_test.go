package search

import (
	"sort"
	"testing"

	"cottage/internal/xrand"
)

func randomHits(rng *xrand.RNG, n int) []Hit {
	hits := make([]Hit, n)
	for i := range hits {
		hits[i] = Hit{Doc: int64(rng.Intn(10000)), Score: rng.Float64() * 20}
	}
	return hits
}

func TestMergeBasics(t *testing.T) {
	a := []Hit{{Doc: 1, Score: 5}, {Doc: 2, Score: 3}}
	b := []Hit{{Doc: 3, Score: 4}}
	m := Merge(2, a, b)
	if len(m) != 2 || m[0].Doc != 1 || m[1].Doc != 3 {
		t.Fatalf("merge wrong: %v", m)
	}
	if len(Merge(10, a, b)) != 3 {
		t.Error("k larger than total should return everything")
	}
	if len(Merge(5)) != 0 {
		t.Error("no lists should merge to empty")
	}
	if len(Merge(0, a)) != 0 {
		t.Error("k=0 should be empty")
	}
}

func TestMergeSortedAndDeterministic(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 100; trial++ {
		lists := make([][]Hit, 1+rng.Intn(5))
		for i := range lists {
			lists[i] = randomHits(rng, rng.Intn(30))
		}
		k := 1 + rng.Intn(15)
		m := Merge(k, lists...)
		for i := 1; i < len(m); i++ {
			if m[i].Score > m[i-1].Score {
				t.Fatal("merge not sorted by score")
			}
			if m[i].Score == m[i-1].Score && m[i].Doc < m[i-1].Doc {
				t.Fatal("merge tie-break violated")
			}
		}
		// Order of input lists must not matter.
		rev := make([][]Hit, len(lists))
		for i := range lists {
			rev[i] = lists[len(lists)-1-i]
		}
		m2 := Merge(k, rev...)
		for i := range m {
			if m[i] != m2[i] {
				t.Fatal("merge depends on list order")
			}
		}
	}
}

func TestMergeEqualsGlobalSort(t *testing.T) {
	rng := xrand.New(10)
	lists := make([][]Hit, 4)
	for i := range lists {
		lists[i] = randomHits(rng, 50)
	}
	all := sortedCopy(lists...)
	m := Merge(10, lists...)
	for i := range m {
		if m[i] != all[i] {
			t.Fatalf("merge differs from global sort at %d", i)
		}
	}
}

// sortedCopy is the definition Merge is held to: every hit, fully sorted.
func sortedCopy(lists ...[]Hit) []Hit {
	all := []Hit{}
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	return all
}

// TestMergeEdgeInputs: no lists, empty lists, one (unsorted) list, k
// beyond the total and k <= 0 all return the first min(k, total) hits of
// the sorted input — never nil, never a panic.
func TestMergeEdgeInputs(t *testing.T) {
	rng := xrand.New(12)
	one := randomHits(rng, 25)
	for name, lists := range map[string][][]Hit{
		"no lists":     nil,
		"empty lists":  {nil, {}, nil},
		"one list":     {one},
		"one and gaps": {nil, one, {}},
		"several":      {randomHits(rng, 3), randomHits(rng, 40), nil, randomHits(rng, 1)},
	} {
		all := sortedCopy(lists...)
		for _, k := range []int{-3, 0, 1, 10, len(all), len(all) + 1, 1000} {
			want := all
			if k < len(all) {
				want = all[:max(k, 0)]
			}
			got := Merge(k, lists...)
			if got == nil || len(got) != len(want) {
				t.Fatalf("%s k=%d: got %d hits (nil %v), want %d", name, k, len(got), got == nil, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: hit %d is %v, want %v", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMergeAllocs: the returned slice and nothing else, at the
// aggregator's shape of 16 shards x 10 hits.
func TestMergeAllocs(t *testing.T) {
	rng := xrand.New(13)
	lists := make([][]Hit, 16)
	for i := range lists {
		lists[i] = sortedCopy(randomHits(rng, 10))
	}
	if allocs := testing.AllocsPerRun(100, func() { Merge(10, lists...) }); allocs > 1 {
		t.Errorf("Merge allocates %v per run, want <= 1", allocs)
	}
}

func BenchmarkMerge16x10(b *testing.B) {
	rng := xrand.New(13)
	lists := make([][]Hit, 16)
	for i := range lists {
		lists[i] = sortedCopy(randomHits(rng, 10))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Merge(10, lists...)
	}
}

// TestCountInMatchesOverlap: CountIn counts what Overlap counts against
// the DocSet of the same list, repeated documents in either list included.
func TestCountInMatchesOverlap(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 500; trial++ {
		hits := make([]Hit, rng.Intn(12))
		in := make([]Hit, rng.Intn(12))
		for i := range hits {
			hits[i].Doc = int64(rng.Intn(20))
		}
		for i := range in {
			in[i].Doc = int64(rng.Intn(20))
		}
		if got, want := CountIn(hits, in), Overlap(hits, DocSet(in)); got != want {
			t.Fatalf("hits %v in %v: CountIn %d, Overlap %d", hits, in, got, want)
		}
	}
}

func TestDocSetAndOverlap(t *testing.T) {
	hits := []Hit{{Doc: 1}, {Doc: 2}, {Doc: 3}}
	set := DocSet(hits)
	if len(set) != 3 || !set[2] {
		t.Fatal("DocSet wrong")
	}
	if Overlap([]Hit{{Doc: 2}, {Doc: 9}}, set) != 1 {
		t.Fatal("Overlap wrong")
	}
	if Overlap(nil, set) != 0 || Overlap(hits, nil) != 0 {
		t.Fatal("empty overlap wrong")
	}
}
