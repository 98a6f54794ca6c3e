package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"cottage/internal/stats"
)

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the
// spread the benchmark's bounds are judged against.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	med := stats.PercentileSorted(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// quietest reduces one metric's per-window values to the value
// reported: the best window, which is the largest for a throughput and
// the smallest for everything else. The noise of a shared box is
// one-sided — a neighbour makes a window slower, never faster — so the
// least disturbed window is the closest to what the program itself costs,
// and it is the only reduction of the five windows that stayed within the
// bounds while a neighbour was busy (bench/README.md, "How windows become
// a number").
func quietest(windows []float64, higherIsBetter bool) float64 {
	if len(windows) == 0 {
		return 0
	}
	if higherIsBetter {
		return slices.Max(windows)
	}
	return slices.Min(windows)
}

// usPer is d spread over n operations, in microseconds.
func usPer(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / 1000 / float64(max(n, 1))
}
