// SSE2 block decoders for the vertical bit-packed layout. One call
// decodes a whole 64-value block: 16 iterations, each reconstructing
// the four lanes of one group. Group g's lanes all start at bit g*w of
// their lane stream, so the same two packed shifts serve every lane —
// and every width: SSE2 packed shifts treat counts >= 32 as "shift
// everything out", so the unconditional two-word combine
//
//	V = ((M0 >> off) | (M1 << (32-off))) & mask
//
// is exact at off = 0 too (M1's contribution is shifted to zero). M1 is
// the m128 word after M0, which for the last group of an odd width lies
// one word past the packed payload — the Pad contract in simdpack.go
// keeps that read in bounds, and the mask keeps it out of the result.
//
// The delta decoder adds an in-register prefix sum: two shift-and-add
// steps turn [g0 g1 g2 g3] into inclusive sums, a broadcast carry from
// the previous group is added, and the new carry is the top lane
// splatted (PSHUFD $0xFF). The increment decoder adds one per value via
// PSUBL of an all-ones register (x - (-1) = x + 1). Integer ops only:
// both paths are bit-identical to the portable reference decoders.

#include "textflag.h"

// func unpackDeltas64asm(src *byte, dst *uint32, w, base uint64)
TEXT ·unpackDeltas64asm(SB), NOSPLIT, $0-32
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ w+16(FP), R9

	MOVQ $1, AX
	MOVQ R9, CX
	SHLQ CX, AX
	DECQ AX
	MOVQ AX, X5
	PSHUFD $0x00, X5, X5

	// X6 = broadcast(base): the running carry.
	MOVQ base+24(FP), AX
	MOVQ AX, X6
	PSHUFD $0x00, X6, X6

	XORQ BX, BX
	MOVQ $16, CX

deltaloop:
	MOVQ BX, AX
	SHRQ $5, AX
	SHLQ $4, AX
	MOVOU (SI)(AX*1), X0
	MOVOU 16(SI)(AX*1), X1
	MOVQ BX, DX
	ANDQ $31, DX
	MOVQ DX, X2
	MOVQ $32, R8
	SUBQ DX, R8
	MOVQ R8, X3
	PSRLL X2, X0
	PSLLL X3, X1
	POR  X1, X0
	PAND X5, X0

	// Inclusive prefix sum across the four lanes, then add the carry.
	MOVOU X0, X4
	PSLLO $4, X4
	PADDL X4, X0
	MOVOU X0, X4
	PSLLO $8, X4
	PADDL X4, X0
	PADDL X6, X0
	PSHUFD $0xFF, X0, X6

	MOVOU X0, (DI)
	ADDQ $16, DI
	ADDQ R9, BX
	DECQ CX
	JNZ  deltaloop
	RET

// func unpackInc64asm(src *byte, dst *uint32, w uint64)
TEXT ·unpackInc64asm(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ w+16(FP), R9

	MOVQ $1, AX
	MOVQ R9, CX
	SHLQ CX, AX
	DECQ AX
	MOVQ AX, X5
	PSHUFD $0x00, X5, X5

	// X9 = all ones; PSUBL X9 is +1 per lane.
	PCMPEQL X9, X9

	XORQ BX, BX
	MOVQ $16, CX

incloop:
	MOVQ BX, AX
	SHRQ $5, AX
	SHLQ $4, AX
	MOVOU (SI)(AX*1), X0
	MOVOU 16(SI)(AX*1), X1
	MOVQ BX, DX
	ANDQ $31, DX
	MOVQ DX, X2
	MOVQ $32, R8
	SUBQ DX, R8
	MOVQ R8, X3
	PSRLL X2, X0
	PSLLL X3, X1
	POR  X1, X0
	PAND X5, X0
	PSUBL X9, X0
	MOVOU X0, (DI)
	ADDQ $16, DI
	ADDQ R9, BX
	DECQ CX
	JNZ  incloop
	RET
