package search

import (
	"testing"

	"cottage/internal/index"
	"cottage/internal/race"
	"cottage/internal/xrand"
)

// TestBlockMaxDifferential is the skip-enabled strategies' exactness
// battery, mirroring the anytime one: across 320 random shards,
// MaxScoreBM and WANDBM must return bitwise-identical hits — documents,
// score bits, order — to Exhaustive. The quantized bounds may only veto
// work, never change a score, so any unsound skip shows up here.
func TestBlockMaxDifferential(t *testing.T) {
	rng := xrand.New(99)
	for seed := uint64(0); seed < 320; seed++ {
		s := buildRandomShard(t, seed)
		q := randomQuery(rng)
		k := 1 + rng.Intn(25)
		ex := Exhaustive(s, q, k)
		ms := MaxScoreBM(s, q, k)
		wd := WANDBM(s, q, k)
		if !hitsIdentical(ex.Hits, ms.Hits) {
			t.Fatalf("seed %d: maxscore-bm differs from exhaustive for %v k=%d:\n ex=%v\n bm=%v",
				seed, q, k, ex.Hits, ms.Hits)
		}
		if !hitsIdentical(ex.Hits, wd.Hits) {
			t.Fatalf("seed %d: wand-bm differs from exhaustive for %v k=%d:\n ex=%v\n bm=%v",
				seed, q, k, ex.Hits, wd.Hits)
		}
	}
}

// TestBlockMaxNeverDoesMoreWork: MaxScoreBM takes the exact MaxScore
// path except where a quantized bound vetoes a probe, so it can only
// traverse fewer postings, and scores the same candidates. On a skewed
// query the veto must actually fire.
func TestBlockMaxNeverDoesMoreWork(t *testing.T) {
	s := buildShard(t, 31, 8000)
	for _, q := range [][]string{
		{"wa", "wdp"},
		{"wa", "wb", "wc"},
		{"wa", "wb", "wc", "wd"},
	} {
		ms := MaxScore(s, q, 10)
		bm := MaxScoreBM(s, q, 10)
		if !hitsIdentical(ms.Hits, bm.Hits) {
			t.Fatalf("%v: maxscore-bm hits differ from maxscore", q)
		}
		if bm.Stats.PostingsTraversed > ms.Stats.PostingsTraversed {
			t.Errorf("%v: maxscore-bm traversed %d postings, maxscore %d",
				q, bm.Stats.PostingsTraversed, ms.Stats.PostingsTraversed)
		}
		if bm.Stats.DocsScored != ms.Stats.DocsScored {
			t.Errorf("%v: maxscore-bm scored %d docs, maxscore %d",
				q, bm.Stats.DocsScored, ms.Stats.DocsScored)
		}
	}
	bm := MaxScoreBM(s, []string{"wc", "wd", "we"}, 10)
	if bm.Stats.BlocksSkipped == 0 {
		t.Error("balanced mid-frequency query produced no quantized-bound probe vetoes")
	}
	if bm.Stats.BlocksDecoded == 0 {
		t.Error("BlocksDecoded not reported")
	}
	wd := WANDBM(s, []string{"wa", "wb"}, 10)
	if wd.Stats.BlocksSkipped == 0 {
		t.Error("wand-bm made no block skips on the common-term query")
	}
	plain := WAND(s, []string{"wa", "wb"}, 10)
	if wd.Stats.PostingsTraversed >= plain.Stats.PostingsTraversed {
		t.Errorf("wand-bm traversed %d postings, plain wand %d: block skipping saved nothing",
			wd.Stats.PostingsTraversed, plain.Stats.PostingsTraversed)
	}
}

// TestBlockMaxEdgeCases mirrors the reference strategies' edge behaviour.
func TestBlockMaxEdgeCases(t *testing.T) {
	s := buildShard(t, 3, 500)
	for name, eval := range map[string]Evaluator{
		"maxscore-bm": MaxScoreBM,
		"wand-bm":     WANDBM,
	} {
		if r := eval(s, nil, 10); len(r.Hits) != 0 {
			t.Errorf("%s: nil query should return nothing", name)
		}
		if r := eval(s, []string{"zzzznope"}, 10); len(r.Hits) != 0 || r.Stats.TermsMatched != 0 {
			t.Errorf("%s: absent term should return nothing", name)
		}
		if r := eval(s, []string{"wa"}, 0); len(r.Hits) != 0 {
			t.Errorf("%s: k=0 should return nothing", name)
		}
	}
	if r := Eval(StrategyMaxScoreBM, s, []string{"wa"}, 5); len(r.Hits) == 0 {
		t.Error("Eval dispatch to maxscore-bm failed")
	}
	if r := Eval(StrategyWANDBM, s, []string{"wa"}, 5); len(r.Hits) == 0 {
		t.Error("Eval dispatch to wand-bm failed")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, st := range []Strategy{
		StrategyExhaustive, StrategyMaxScore, StrategyWAND,
		StrategyMaxScoreBM, StrategyWANDBM,
	} {
		got, ok := ParseStrategy(st.String())
		if !ok || got != st {
			t.Errorf("ParseStrategy(%q) = %v, %v", st.String(), got, ok)
		}
	}
	if _, ok := ParseStrategy("nope"); ok {
		t.Error("ParseStrategy accepted an unknown name")
	}
	if StrategyMaxScoreBM.String() != "maxscore-bm" || StrategyWANDBM.String() != "wand-bm" {
		t.Error("block-max strategy names wrong")
	}
}

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

// TestBlockMaxStrategiesAllocNoMoreThanReference: the skip machinery is
// overlay arithmetic on pooled cursors — it must not add a single
// steady-state allocation over the reference strategies.
func TestBlockMaxStrategiesAllocNoMoreThanReference(t *testing.T) {
	if race.Enabled {
		t.Skip("race runtime randomly drops sync.Pool items; pooled paths allocate")
	}
	s := buildShard(t, 9, 4000)
	q := []string{"wa", "wb", "wc"}
	// Warm the pools.
	MaxScore(s, q, 10)
	MaxScoreBM(s, q, 10)
	WAND(s, q, 10)
	WANDBM(s, q, 10)
	ms := testing.AllocsPerRun(50, func() { MaxScore(s, q, 10) })
	bm := testing.AllocsPerRun(50, func() { MaxScoreBM(s, q, 10) })
	if bm > ms {
		t.Errorf("maxscore-bm allocates %v per run, maxscore %v", bm, ms)
	}
	wd := testing.AllocsPerRun(50, func() { WAND(s, q, 10) })
	wb := testing.AllocsPerRun(50, func() { WANDBM(s, q, 10) })
	if wb > wd {
		t.Errorf("wand-bm allocates %v per run, wand %v", wb, wd)
	}
}

func TestStatsAddBlockFields(t *testing.T) {
	a := ExecStats{BlocksDecoded: 1, BlocksSkipped: 2}
	a.Add(ExecStats{BlocksDecoded: 10, BlocksSkipped: 20})
	if a.BlocksDecoded != 11 || a.BlocksSkipped != 22 {
		t.Errorf("Add dropped block fields: %+v", a)
	}
}

func BenchmarkMaxScoreBM(b *testing.B) {
	s := buildShard(b, 9, 10000)
	q := []string{"wa", "wb", "wc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MaxScoreBM(s, q, 10)
	}
}

func BenchmarkWANDBM(b *testing.B) {
	s := buildShard(b, 9, 10000)
	q := []string{"wa", "wb", "wc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WANDBM(s, q, 10)
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
	_ = index.BlockSize
}
