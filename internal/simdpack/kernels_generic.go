//go:build !amd64

package simdpack

// Portable fallbacks: the reference decoders double as the production
// path off amd64. They are bit-identical to the SSE2 kernels (integer
// arithmetic only) and honor the same signatures, so the index and
// search layers are architecture-blind.

// UnpackDeltas decodes one block of gaps packed at width w and returns
// the running sums seeded at base: dst[v] = base + gap[0] + ... + gap[v].
func UnpackDeltas(src []byte, w uint32, base uint32, dst *[BlockLen]uint32) {
	unpackDeltasRef(src, w, base, dst)
}

// UnpackInc decodes one block packed at width w and adds one to every
// value (the stored-as-minus-one term-frequency convention).
func UnpackInc(src []byte, w uint32, dst *[BlockLen]uint32) {
	unpackIncRef(src, w, dst)
}
