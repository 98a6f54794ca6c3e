//go:build amd64

package simdpack

// The SSE2 kernels in kernels_amd64.s decode one 64-value block per
// call: sixteen iterations, each reconstructing four lanes with a pair
// of packed shifts, a mask, and an in-register prefix sum (document-ID
// gaps) or increment (term frequencies). SSE2 packed shifts saturate to zero for counts >= 32,
// which is what makes the unconditional two-word read correct at every
// bit offset — including offset 0, where the second word's contribution
// is shifted entirely away. Callers must honor the Pad contract: the
// kernels read one m128 word past the packed payload.
//
// Width 0 never reaches the assembly; the wrappers materialize the
// degenerate all-zero / all-base / all-one block directly.

//go:noescape
func unpackDeltas64asm(src *byte, dst *uint32, w, base uint64)

//go:noescape
func unpackInc64asm(src *byte, dst *uint32, w uint64)

// UnpackDeltas decodes one block of gaps packed at width w and returns
// the running sums seeded at base: dst[v] = base + gap[0] + ... + gap[v].
// src must hold PackedBytes(w)+Pad readable bytes when w > 0.
func UnpackDeltas(src []byte, w uint32, base uint32, dst *[BlockLen]uint32) {
	if w == 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	unpackDeltas64asm(&src[0], &dst[0], uint64(w), uint64(base))
}

// UnpackInc decodes one block packed at width w and adds one to every
// value (the stored-as-minus-one term-frequency convention).
// src must hold PackedBytes(w)+Pad readable bytes when w > 0.
func UnpackInc(src []byte, w uint32, dst *[BlockLen]uint32) {
	if w == 0 {
		for i := range dst {
			dst[i] = 1
		}
		return
	}
	unpackInc64asm(&src[0], &dst[0], uint64(w))
}
