package search

import (
	"testing"

	"cottage/internal/race"
)

// TestCursorDecodeZeroAlloc: a cursor sweep over a packed term — every
// block decoded through the SIMD kernels into the cursor's scratch —
// must not allocate. This is the property that makes block-at-a-time
// decoding viable on the query hot path.
func TestCursorDecodeZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime randomly drops sync.Pool items; pooled paths allocate")
	}
	s := buildShard(t, 9, 4000)
	ti, ok := s.Lookup("wa")
	if !ok || ti.NumBlocks() < 2 {
		t.Fatal("need a multi-block term")
	}
	var c cursor
	sink := uint64(0)
	if allocs := testing.AllocsPerRun(50, func() {
		c.ti, c.pos, c.bi = ti, 0, -1
		for !c.exhausted() {
			sink += uint64(c.doc()) + uint64(c.posting().TF)
			c.pos++
		}
	}); allocs != 0 {
		t.Errorf("cursor sweep allocates %v per run, want 0 (sink %d)", allocs, sink)
	}
	// Seeks — block binary search plus in-block scan — are also free.
	if allocs := testing.AllocsPerRun(50, func() {
		c.ti, c.pos, c.bi = ti, 0, -1
		for d := uint32(0); d < 4000; d += 97 {
			c.seek(d)
		}
	}); allocs != 0 {
		t.Errorf("cursor seeks allocate %v per run, want 0", allocs)
	}
}

// BenchmarkCursorSweep measures the raw block-decode throughput of a
// full cursor pass over the largest term — the SIMD unpack path with no
// scoring attached.
func BenchmarkCursorSweep(b *testing.B) {
	s := buildShard(b, 9, 10000)
	ti, ok := s.Lookup("wa")
	if !ok {
		b.Fatal("term missing")
	}
	var c cursor
	sink := uint64(0)
	b.SetBytes(int64(ti.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ti, c.pos, c.bi = ti, 0, -1
		for !c.exhausted() {
			sink += uint64(c.doc())
			c.pos++
		}
	}
	_ = sink
}
