package index

import (
	"container/heap"
	"math"
	"slices"
	"sort"
	"testing"

	"cottage/internal/stats"
	"cottage/internal/xrand"
)

// scoreLists returns random score-like lists around the radix cutover and
// well past it: few distinct values (heavy duplicates), zeros, values
// spanning many binades, and negatives, which sortScores must order too.
func scoreLists() [][]float64 {
	rng := xrand.New(21)
	var lists [][]float64
	for _, n := range []int{1, 2, radixCutover - 1, radixCutover, radixCutover + 1, 5000} {
		for kind := 0; kind < 5; kind++ {
			xs := make([]float64, n)
			for i := range xs {
				switch kind {
				case 0: // few distinct values
					xs[i] = float64(1+rng.Intn(6)) * 0.37
				case 1: // zeros among positives
					if rng.Intn(3) == 0 {
						xs[i] = 0
					} else {
						xs[i] = rng.Float64() * 9
					}
				case 2: // many binades
					xs[i] = math.Ldexp(rng.Float64(), rng.Intn(80)-40)
				case 3: // mixed signs
					xs[i] = rng.NormFloat64() * 5
				default: // all equal
					xs[i] = 2.5
				}
			}
			lists = append(lists, xs)
		}
	}
	return lists
}

// TestSortScoresMatchesSortFloat64s: the radix sort leaves the very bits
// sort.Float64s leaves, on both sides of the cutover.
func TestSortScoresMatchesSortFloat64s(t *testing.T) {
	var buf statsScratch
	for li, xs := range scoreLists() {
		got := slices.Clone(xs)
		want := slices.Clone(xs)
		sortScores(got, &buf)
		sort.Float64s(want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("list %d (len %d): element %d = %v, want %v", li, len(xs), i, got[i], want[i])
			}
		}
	}
}

// TestSortedMeansMatchStats: the one-pass means equal the stats package's
// two passes bit for bit.
func TestSortedMeansMatchStats(t *testing.T) {
	lists := append(scoreLists(), nil, []float64{0, 0}, []float64{-1, 0})
	for li, xs := range lists {
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		geo, harm := sortedMeans(sorted)
		if wg := stats.GeometricMean(sorted); math.Float64bits(geo) != math.Float64bits(wg) {
			t.Errorf("list %d: geometric mean %v, want %v", li, geo, wg)
		}
		if wh := stats.HarmonicMean(sorted); math.Float64bits(harm) != math.Float64bits(wh) {
			t.Errorf("list %d: harmonic mean %v, want %v", li, harm, wh)
		}
	}
}

// refMinHeap is a container/heap min-heap of float64, the reference for
// heapInsertions' inlined heap.
type refMinHeap []float64

func (h refMinHeap) Len() int            { return len(h) }
func (h refMinHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refMinHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *refMinHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestHeapInsertionsMatchesContainerHeap: the inlined heap admits the same
// number of scores as a container/heap scan.
func TestHeapInsertionsMatchesContainerHeap(t *testing.T) {
	for li, scores := range scoreLists() {
		for _, k := range []int{1, 3, 10, 64} {
			h := &refMinHeap{}
			want := 0
			for _, sc := range scores {
				if h.Len() < k {
					heap.Push(h, sc)
					want++
				} else if sc > (*h)[0] {
					(*h)[0] = sc
					heap.Fix(h, 0)
					want++
				}
			}
			if got := heapInsertions(scores, k); got != want {
				t.Errorf("list %d k=%d: %d insertions, want %d", li, k, got, want)
			}
		}
	}
}
