// Dense inference and training kernels. Each matvec kernel accumulates
// one tile of output lanes of z = W·x + bias in vector registers, reading
// the transposed weight layout wt (wt[i*out+o]) so one load covers
// adjacent outputs. Every lane is an independent IEEE-754 double
// accumulator that adds bias first and then products in ascending input
// order — the exact sequence of the scalar reference — so the vector and
// scalar paths are bit-identical. Products round before they are added
// (MULPD then ADDPD): there is deliberately no FMA, which would round
// once where the reference rounds twice.
//
// When a is non-nil the matvec kernels also write a = ReLU(z) with MAXPD
// against +0. MAXPD returns its second (source) operand when the inputs
// compare unordered or are both zeros, so −0 and NaN become +0 — exactly
// the scalar v > 0 ? v : 0.
//
// The SSE2 kernels are the amd64 baseline; the AVX2 kernels run only when
// cpuHasAVX2 (CPUID + XGETBV) says the CPU and OS support them.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
// The low half of XCR0: which register states the OS saves.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func colsDense16(z, a, wt, bias, x *float64, k, stride int)
// The SSE2 tile: z[0..16) = bias[0..16) + Σ_{i<k} x[i] *
// wt[i*stride/8 .. +16), and a[0..16) = ReLU(z) when a is non-nil. Eight
// XMM accumulators keep eight independent add chains in flight. stride
// is in bytes; wt points at the first of the sixteen columns.
TEXT ·colsDense16(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ wt+16(FP), SI
	MOVQ bias+24(FP), BX
	MOVQ x+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ stride+48(FP), DX
	MOVUPS 0(BX), X0
	MOVUPS 16(BX), X1
	MOVUPS 32(BX), X2
	MOVUPS 48(BX), X3
	MOVUPS 64(BX), X4
	MOVUPS 80(BX), X5
	MOVUPS 96(BX), X6
	MOVUPS 112(BX), X7
	XORQ AX, AX
dense16loop:
	CMPQ AX, CX
	JGE  dense16done
	MOVQ (R9)(AX*8), X8
	UNPCKLPD X8, X8
	MOVUPS 0(SI), X9
	MULPD X8, X9
	ADDPD X9, X0
	MOVUPS 16(SI), X10
	MULPD X8, X10
	ADDPD X10, X1
	MOVUPS 32(SI), X11
	MULPD X8, X11
	ADDPD X11, X2
	MOVUPS 48(SI), X12
	MULPD X8, X12
	ADDPD X12, X3
	MOVUPS 64(SI), X13
	MULPD X8, X13
	ADDPD X13, X4
	MOVUPS 80(SI), X14
	MULPD X8, X14
	ADDPD X14, X5
	MOVUPS 96(SI), X15
	MULPD X8, X15
	ADDPD X15, X6
	MOVUPS 112(SI), X9
	MULPD X8, X9
	ADDPD X9, X7
	ADDQ DX, SI
	INCQ AX
	JMP  dense16loop
dense16done:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	TESTQ R8, R8
	JZ    dense16ret
	XORPD X8, X8
	MAXPD X8, X0
	MAXPD X8, X1
	MAXPD X8, X2
	MAXPD X8, X3
	MAXPD X8, X4
	MAXPD X8, X5
	MAXPD X8, X6
	MAXPD X8, X7
	MOVUPS X0, 0(R8)
	MOVUPS X1, 16(R8)
	MOVUPS X2, 32(R8)
	MOVUPS X3, 48(R8)
	MOVUPS X4, 64(R8)
	MOVUPS X5, 80(R8)
	MOVUPS X6, 96(R8)
	MOVUPS X7, 112(R8)
dense16ret:
	RET

// func colsDense8(z, a, wt, bias, x *float64, k, stride int)
// Eight-lane variant of colsDense16 for output blocks of 8..15.
TEXT ·colsDense8(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ wt+16(FP), SI
	MOVQ bias+24(FP), BX
	MOVQ x+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ stride+48(FP), DX
	MOVUPS 0(BX), X0
	MOVUPS 16(BX), X1
	MOVUPS 32(BX), X2
	MOVUPS 48(BX), X3
	XORQ AX, AX
dense8loop:
	CMPQ AX, CX
	JGE  dense8done
	MOVQ (R9)(AX*8), X4
	UNPCKLPD X4, X4
	MOVUPS 0(SI), X5
	MULPD X4, X5
	ADDPD X5, X0
	MOVUPS 16(SI), X6
	MULPD X4, X6
	ADDPD X6, X1
	MOVUPS 32(SI), X7
	MULPD X4, X7
	ADDPD X7, X2
	MOVUPS 48(SI), X8
	MULPD X4, X8
	ADDPD X8, X3
	ADDQ DX, SI
	INCQ AX
	JMP  dense8loop
dense8done:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	TESTQ R8, R8
	JZ    dense8ret
	XORPD X4, X4
	MAXPD X4, X0
	MAXPD X4, X1
	MAXPD X4, X2
	MAXPD X4, X3
	MOVUPS X0, 0(R8)
	MOVUPS X1, 16(R8)
	MOVUPS X2, 32(R8)
	MOVUPS X3, 48(R8)
dense8ret:
	RET

// func avxCols32(z, a, wt, bias, x *float64, k, stride int)
// The AVX2 tile: colsDense16's contract over 32 lanes, eight YMM
// accumulators of four outputs each.
TEXT ·avxCols32(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ wt+16(FP), SI
	MOVQ bias+24(FP), BX
	MOVQ x+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ stride+48(FP), DX
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	XORQ AX, AX
avx32loop:
	CMPQ AX, CX
	JGE  avx32done
	VBROADCASTSD (R9)(AX*8), Y8
	VMULPD 0(SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(SI), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(SI), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(SI), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(SI), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(SI), Y8, Y9
	VADDPD Y9, Y7, Y7
	ADDQ DX, SI
	INCQ AX
	JMP  avx32loop
avx32done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	TESTQ R8, R8
	JZ    avx32ret
	VXORPD Y8, Y8, Y8
	VMAXPD Y8, Y0, Y0
	VMAXPD Y8, Y1, Y1
	VMAXPD Y8, Y2, Y2
	VMAXPD Y8, Y3, Y3
	VMAXPD Y8, Y4, Y4
	VMAXPD Y8, Y5, Y5
	VMAXPD Y8, Y6, Y6
	VMAXPD Y8, Y7, Y7
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, 128(R8)
	VMOVUPD Y5, 160(R8)
	VMOVUPD Y6, 192(R8)
	VMOVUPD Y7, 224(R8)
avx32ret:
	VZEROUPPER
	RET

// func avxCols16(z, a, wt, bias, x *float64, k, stride int, mask *int64)
// Up to sixteen lanes in one pass over the inputs, for what the 32-lane
// tile leaves (the output layers): four YMM accumulators of four lanes,
// so four add chains are in flight where a narrower tile would wait on
// one or two. mask holds sixteen int64 lanes, all ones for the lanes to
// compute; each four-lane group loads its own quarter, and VMASKMOVPD
// reads and writes only the selected lanes, so a partial tile never
// touches memory past the end of wt, bias, z or a.
TEXT ·avxCols16(SB), NOSPLIT, $0-64
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ wt+16(FP), SI
	MOVQ bias+24(FP), BX
	MOVQ x+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ stride+48(FP), DX
	MOVQ mask+56(FP), R10
	VMOVDQU 0(R10), Y12
	VMOVDQU 32(R10), Y13
	VMOVDQU 64(R10), Y14
	VMOVDQU 96(R10), Y15
	VMASKMOVPD 0(BX), Y12, Y0
	VMASKMOVPD 32(BX), Y13, Y1
	VMASKMOVPD 64(BX), Y14, Y2
	VMASKMOVPD 96(BX), Y15, Y3
	XORQ AX, AX
avx16loop:
	CMPQ AX, CX
	JGE  avx16done
	VBROADCASTSD (R9)(AX*8), Y8
	VMASKMOVPD 0(SI), Y12, Y4
	VMULPD Y4, Y8, Y4
	VADDPD Y4, Y0, Y0
	VMASKMOVPD 32(SI), Y13, Y5
	VMULPD Y5, Y8, Y5
	VADDPD Y5, Y1, Y1
	VMASKMOVPD 64(SI), Y14, Y6
	VMULPD Y6, Y8, Y6
	VADDPD Y6, Y2, Y2
	VMASKMOVPD 96(SI), Y15, Y7
	VMULPD Y7, Y8, Y7
	VADDPD Y7, Y3, Y3
	ADDQ DX, SI
	INCQ AX
	JMP  avx16loop
avx16done:
	VMASKMOVPD Y0, Y12, 0(DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	VMASKMOVPD Y3, Y15, 96(DI)
	TESTQ R8, R8
	JZ    avx16ret
	VXORPD Y8, Y8, Y8
	VMAXPD Y8, Y0, Y0
	VMAXPD Y8, Y1, Y1
	VMAXPD Y8, Y2, Y2
	VMAXPD Y8, Y3, Y3
	VMASKMOVPD Y0, Y12, 0(R8)
	VMASKMOVPD Y1, Y13, 32(R8)
	VMASKMOVPD Y2, Y14, 64(R8)
	VMASKMOVPD Y3, Y15, 96(R8)
avx16ret:
	VZEROUPPER
	RET

// func gradCols8(acc, vec, bcast *float64, batch, vecStride, bcastStride int)
// The SSE2 gradient tile: acc[0..8) += Σ_{r<batch} bcast[r*bcastStride/8]
// * vec[r*vecStride/8 .. +8). The accumulators start from acc's current
// contents, so the per-element chain is exactly the sequential
// ascending-r accumulation of the reference backward pass. Strides are in
// bytes.
TEXT ·gradCols8(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ vec+8(FP), SI
	MOVQ bcast+16(FP), BX
	MOVQ batch+24(FP), CX
	MOVQ vecStride+32(FP), DX
	MOVQ bcastStride+40(FP), R8
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	XORQ AX, AX
grad8loop:
	CMPQ AX, CX
	JGE  grad8done
	MOVQ (BX), X4
	UNPCKLPD X4, X4
	MOVUPS 0(SI), X5
	MULPD X4, X5
	ADDPD X5, X0
	MOVUPS 16(SI), X6
	MULPD X4, X6
	ADDPD X6, X1
	MOVUPS 32(SI), X7
	MULPD X4, X7
	ADDPD X7, X2
	MOVUPS 48(SI), X8
	MULPD X4, X8
	ADDPD X8, X3
	ADDQ DX, SI
	ADDQ R8, BX
	INCQ AX
	JMP  grad8loop
grad8done:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

// func avxGrad32(acc, vec, bcast *float64, batch, vecStride, bcastStride int)
// The AVX2 gradient tile: acc[0..32) += Σ_{r<batch} bcast[r*bcastStride/8]
// * vec[r*vecStride/8 .. +32), in ascending r, starting from acc's
// current contents. Eight YMM accumulators keep eight independent add
// chains in flight. Strides are in bytes. gradWT points vec at the first
// lane's column and bcast at the broadcast column, in row 0 of the
// activations and the deltas (or the other way round).
TEXT ·avxGrad32(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ vec+8(FP), SI
	MOVQ bcast+16(FP), BX
	MOVQ batch+24(FP), CX
	MOVQ vecStride+32(FP), DX
	MOVQ bcastStride+40(FP), R8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ AX, AX
agrad32loop:
	CMPQ AX, CX
	JGE  agrad32done
	VBROADCASTSD (BX), Y8
	VMULPD 0(SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(SI), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(SI), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(SI), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(SI), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(SI), Y8, Y9
	VADDPD Y9, Y7, Y7
	ADDQ DX, SI
	ADDQ R8, BX
	INCQ AX
	JMP  agrad32loop
agrad32done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func colsDense4(z, a, wt, bias, x *float64, k, stride int)
// Four-lane tail variant of colsDense8 for output blocks of 4..7.
TEXT ·colsDense4(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ wt+16(FP), SI
	MOVQ bias+24(FP), BX
	MOVQ x+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ stride+48(FP), DX
	MOVUPS 0(BX), X0
	MOVUPS 16(BX), X1
	XORQ AX, AX
dense4loop:
	CMPQ AX, CX
	JGE  dense4done
	MOVQ (R9)(AX*8), X4
	UNPCKLPD X4, X4
	MOVUPS 0(SI), X5
	MULPD X4, X5
	ADDPD X5, X0
	MOVUPS 16(SI), X6
	MULPD X4, X6
	ADDPD X6, X1
	ADDQ DX, SI
	INCQ AX
	JMP  dense4loop
dense4done:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	TESTQ R8, R8
	JZ    dense4ret
	XORPD X4, X4
	MAXPD X4, X0
	MAXPD X4, X1
	MOVUPS X0, 0(R8)
	MOVUPS X1, 16(R8)
dense4ret:
	RET

// func gradCols4(acc, vec, bcast *float64, batch, vecStride, bcastStride int)
// Four-lane tail variant of gradCols8 for 4..7 remaining lanes.
TEXT ·gradCols4(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ vec+8(FP), SI
	MOVQ bcast+16(FP), BX
	MOVQ batch+24(FP), CX
	MOVQ vecStride+32(FP), DX
	MOVQ bcastStride+40(FP), R8
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	XORQ AX, AX
grad4loop:
	CMPQ AX, CX
	JGE  grad4done
	MOVQ (BX), X4
	UNPCKLPD X4, X4
	MOVUPS 0(SI), X5
	MULPD X4, X5
	ADDPD X5, X0
	MOVUPS 16(SI), X6
	MULPD X4, X6
	ADDPD X6, X1
	ADDQ DX, SI
	ADDQ R8, BX
	INCQ AX
	JMP  grad4loop
grad4done:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	RET

// func adamStep2(params, grad, m, v *float64, n int, consts *float64)
// Two-lane Adam update over the first n (even) parameters. consts is
// [inv, β1, 1-β1, β2, 1-β2, lr, ε]. Each lane performs exactly the
// scalar sequence of update()'s body — (β1·m)+((1-β1)·gr),
// (β2·v)+(((1-β2)·gr)·gr), p-(lr·m)/(sqrt(v)+ε) — so the packed and
// scalar paths round identically.
TEXT ·adamStep2(SB), NOSPLIT, $0-48
	MOVQ params+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), BX
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ consts+40(FP), R8
	MOVQ 0(R8), X9
	UNPCKLPD X9, X9    // inv
	MOVQ 8(R8), X10
	UNPCKLPD X10, X10  // β1
	MOVQ 16(R8), X11
	UNPCKLPD X11, X11  // 1-β1
	MOVQ 24(R8), X12
	UNPCKLPD X12, X12  // β2
	MOVQ 32(R8), X13
	UNPCKLPD X13, X13  // 1-β2
	MOVQ 40(R8), X14
	UNPCKLPD X14, X14  // lr
	MOVQ 48(R8), X15
	UNPCKLPD X15, X15  // ε
	XORQ AX, AX
adam2loop:
	LEAQ 2(AX), R10
	CMPQ R10, CX
	JGT  adam2done
	MOVUPS (SI)(AX*8), X0
	MULPD X9, X0           // gr = grad·inv
	MOVUPS (BX)(AX*8), X1
	MULPD X10, X1          // β1·m
	MOVAPS X0, X2
	MULPD X11, X2          // (1-β1)·gr
	ADDPD X2, X1           // m'
	MOVUPS X1, (BX)(AX*8)
	MOVUPS (R9)(AX*8), X3
	MULPD X12, X3          // β2·v
	MOVAPS X0, X4
	MULPD X13, X4          // (1-β2)·gr
	MULPD X0, X4           // ((1-β2)·gr)·gr
	ADDPD X4, X3           // v'
	MOVUPS X3, (R9)(AX*8)
	SQRTPD X3, X5
	ADDPD X15, X5          // sqrt(v')+ε
	MOVAPS X1, X6
	MULPD X14, X6          // lr·m'
	DIVPD X5, X6           // (lr·m')/(sqrt(v')+ε)
	MOVUPS (DI)(AX*8), X7
	SUBPD X6, X7
	MOVUPS X7, (DI)(AX*8)
	ADDQ $2, AX
	JMP  adam2loop
adam2done:
	RET
