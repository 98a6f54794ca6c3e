package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quietest window is what every per-window metric reports: however
// many of the other windows a neighbour's busy spell covers, it must not
// move.
func TestQuietestIgnoresSpoiledWindows(t *testing.T) {
	quiet := []float64{1.00, 1.02, 0.99, 1.01, 1.03}
	spell := []float64{1.42, 1.38, 0.99, 1.45, 1.40}
	for _, w := range [][]float64{quiet, spell} {
		if got := quietest(w, false); got != 0.99 {
			t.Errorf("quietest(%v) = %v, want 0.99", w, got)
		}
	}
	// For a throughput the best window is the largest.
	if got := quietest([]float64{1500, 1100, 1520, 1490, 1150}, true); got != 1520 {
		t.Errorf("quietest of throughputs = %v, want 1520", got)
	}
	if got := quietest(nil, false); got != 0 {
		t.Errorf("quietest of no windows = %v, want 0", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the benchmark's bounds are judged with.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	five := []float64{1, 2, 4, 8, 16}
	if got, want := quartileSpread(five), (12.0-1.5)/4; !near(got, want) {
		t.Errorf("spread of powers of two = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5] (extrapolates)
	if got, want := quartileSpread([]float64{3, 5}), (5.5-2.5)/4; !near(got, want) {
		t.Errorf("spread of two samples = %v, want %v", got, want)
	}
}
