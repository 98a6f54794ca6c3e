package simdpack

import (
	"testing"

	"cottage/internal/race"
	"cottage/internal/xrand"
)

// randBlock fills a block with values bounded to w bits, with a mix of
// extremes: all-zero, all-max, and random patterns.
func randBlock(rng *xrand.RNG, w uint32, kind int) [BlockLen]uint32 {
	var vals [BlockLen]uint32
	max := uint32(0)
	if w > 0 {
		if w == 32 {
			max = ^uint32(0)
		} else {
			max = uint32(1)<<w - 1
		}
	}
	for i := range vals {
		switch kind {
		case 0:
			vals[i] = 0
		case 1:
			vals[i] = max
		default:
			if w == 0 {
				vals[i] = 0
			} else {
				vals[i] = uint32(rng.Uint64()) & max
			}
		}
	}
	// Keep the width attained so Width(vals) == w for kinds 1 and 2.
	if w > 0 && kind != 0 {
		vals[0] |= uint32(1) << (w - 1)
	}
	return vals
}

func packBlock(vals *[BlockLen]uint32, w uint32) []byte {
	buf := make([]byte, PackedBytes(w)+Pad)
	Pack(buf, vals, w)
	return buf
}

// TestPackUnpackRoundTrip checks Pack -> unpackRef identity at every
// width: the reference decoder is the oracle the production entry points
// (asm on amd64) are checked against below.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	for w := uint32(0); w <= 32; w++ {
		for kind := 0; kind < 5; kind++ {
			vals := randBlock(rng, w, kind)
			buf := packBlock(&vals, w)
			var ref [BlockLen]uint32
			unpackRef(buf, w, &ref)
			if ref != vals {
				t.Fatalf("w=%d kind=%d: reference unpack != input", w, kind)
			}
		}
	}
}

// TestUnpackDeltasMatchesReference checks the fused gap-decode +
// prefix-sum against the reference at every width, including carry
// propagation across all 16 groups and wraparound arithmetic.
func TestUnpackDeltasMatchesReference(t *testing.T) {
	rng := xrand.New(23)
	bases := []uint32{0, 1, 1 << 20, ^uint32(0) - 5}
	for w := uint32(0); w <= 32; w++ {
		for kind := 0; kind < 5; kind++ {
			vals := randBlock(rng, w, kind)
			buf := packBlock(&vals, w)
			for _, base := range bases {
				var got, ref [BlockLen]uint32
				UnpackDeltas(buf, w, base, &got)
				unpackDeltasRef(buf, w, base, &ref)
				if got != ref {
					t.Fatalf("w=%d kind=%d base=%d: UnpackDeltas diverges from reference", w, kind, base)
				}
				acc := base
				for i, g := range vals {
					acc += g
					if got[i] != acc {
						t.Fatalf("w=%d kind=%d base=%d: sum[%d] = %d, want %d", w, kind, base, i, got[i], acc)
					}
				}
			}
		}
	}
}

// TestUnpackIncMatchesReference checks the fused +1 decode.
func TestUnpackIncMatchesReference(t *testing.T) {
	rng := xrand.New(37)
	for w := uint32(0); w <= 32; w++ {
		vals := randBlock(rng, w, 3)
		buf := packBlock(&vals, w)
		var got, ref [BlockLen]uint32
		UnpackInc(buf, w, &got)
		unpackIncRef(buf, w, &ref)
		if got != ref {
			t.Fatalf("w=%d: UnpackInc diverges from reference", w)
		}
		for i := range vals {
			if got[i] != vals[i]+1 {
				t.Fatalf("w=%d: inc[%d] = %d, want %d", w, i, got[i], vals[i]+1)
			}
		}
	}
}

// TestPadBytesDoNotLeak verifies the mask really keeps the trailing pad
// out of decoded values: filling the pad with garbage must not change
// any output at any width.
func TestPadBytesDoNotLeak(t *testing.T) {
	rng := xrand.New(41)
	for w := uint32(1); w <= 32; w++ {
		vals := randBlock(rng, w, 3)
		clean := packBlock(&vals, w)
		dirty := append([]byte(nil), clean...)
		for i := PackedBytes(w); i < len(dirty); i++ {
			dirty[i] = 0xA5
		}
		var a, b [BlockLen]uint32
		UnpackInc(clean, w, &a)
		UnpackInc(dirty, w, &b)
		if a != b {
			t.Fatalf("w=%d: pad bytes leaked into incremented decode", w)
		}
		UnpackDeltas(clean, w, 7, &a)
		UnpackDeltas(dirty, w, 7, &b)
		if a != b {
			t.Fatalf("w=%d: pad bytes leaked into delta decode", w)
		}
	}
}

func TestWidth(t *testing.T) {
	cases := []struct {
		vals []uint32
		want uint32
	}{
		{[]uint32{0, 0, 0}, 0},
		{[]uint32{1}, 1},
		{[]uint32{0, 3}, 2},
		{[]uint32{255}, 8},
		{[]uint32{256}, 9},
		{[]uint32{^uint32(0)}, 32},
	}
	for _, c := range cases {
		if got := Width(c.vals); got != c.want {
			t.Errorf("Width(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

func TestPackedBytes(t *testing.T) {
	cases := map[uint32]int{0: 0, 1: 16, 2: 16, 3: 32, 4: 32, 31: 256, 32: 256}
	for w, want := range cases {
		if got := PackedBytes(w); got != want {
			t.Errorf("PackedBytes(%d) = %d, want %d", w, got, want)
		}
	}
}

// TestUnpackZeroAlloc pins the decode entry points as allocation-free:
// they are the innermost loop of query evaluation.
func TestUnpackZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	rng := xrand.New(53)
	vals := randBlock(rng, 13, 3)
	buf := packBlock(&vals, 13)
	var dst [BlockLen]uint32
	n := testing.AllocsPerRun(100, func() {
		UnpackDeltas(buf, 13, 42, &dst)
		UnpackInc(buf, 13, &dst)
	})
	if n != 0 {
		t.Fatalf("decode allocated %v times per run", n)
	}
}

func BenchmarkUnpackDeltas(b *testing.B) {
	rng := xrand.New(61)
	for _, w := range []uint32{4, 9, 17} {
		vals := randBlock(rng, w, 3)
		buf := packBlock(&vals, w)
		var dst [BlockLen]uint32
		b.Run("w="+string(rune('0'+w/10))+string(rune('0'+w%10)), func(b *testing.B) {
			b.SetBytes(BlockLen * 4)
			for i := 0; i < b.N; i++ {
				UnpackDeltas(buf, w, 0, &dst)
			}
		})
	}
}
