//go:build amd64

package nn

// The kernels in kernels_amd64.s process a tile of output columns of the
// transposed weight layout at a time: 32 lanes in eight YMM registers
// when the CPU has AVX2, then one masked pass of up to 16 lanes per
// remainder; 16 lanes in eight XMM registers otherwise, then 8- and
// 4-lane tiles and the scalar strided loop. Every path accumulates
// bias-first in ascending input order, so all of them are bit-identical
// to each other and to the portable loops in kernels.go. The gradient
// kernels tile gradWT's lanes the same way (32 with AVX2, then 8 and 4),
// each lane summing in ascending batch row.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xgetbv0()&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// hasAVX2 is the CPU's answer, read once; useAVX2 selects the tile the
// matvec wrapper runs. Only the kernel tests change useAVX2, to hold
// every dispatch level the CPU has to the reference.
var (
	hasAVX2 = cpuHasAVX2()
	useAVX2 = hasAVX2
)

//go:noescape
func colsDense16(z, a, wt, bias, x *float64, k, stride int)

//go:noescape
func colsDense8(z, a, wt, bias, x *float64, k, stride int)

//go:noescape
func colsDense4(z, a, wt, bias, x *float64, k, stride int)

//go:noescape
func avxCols32(z, a, wt, bias, x *float64, k, stride int)

//go:noescape
func avxCols16(z, a, wt, bias, x *float64, k, stride int, mask *int64)

// avxMasks[16-n:] starts with n all-ones lanes and then zeros: the mask
// of an avxCols16 tile that computes its first n lanes.
var avxMasks = [32]int64{
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
}

//go:noescape
func gradCols8(acc, vec, bcast *float64, batch, vecStride, bcastStride int)

//go:noescape
func gradCols4(acc, vec, bcast *float64, batch, vecStride, bcastStride int)

//go:noescape
func avxGrad32(acc, vec, bcast *float64, batch, vecStride, bcastStride int)

// gradWT accumulates the mini-batch weight gradient gw[o*in+i] +=
// Σ_r delta[r*out+o] * act[r*in+i]. Each element's sum runs over
// ascending batch row r starting from gw's current value — the same
// chain as the per-sample reference backward — whichever tiles run.
func gradWT(gw, act, delta []float64, batch, in, out int) {
	// Reslicing bounds every address the kernels touch.
	gw, act, delta = gw[:out*in], act[:batch*in], delta[:batch*out]
	if batch == 0 {
		return
	}
	if in >= out {
		// Lanes along a row of gw, one input each; the output's delta is
		// broadcast.
		for o := 0; o < out; o++ {
			gradLanes(gw[o*in:(o+1)*in], act, delta[o:], batch, in, out)
		}
		return
	}
	// Fewer inputs than outputs (the first layer: 15 inputs, 64 outputs):
	// lanes along a column of gw, one output each, gathered into a
	// contiguous tile and scattered back; the input's activation is
	// broadcast.
	var col [32]float64
	for i := 0; i < in; i++ {
		for o := 0; o < out; o += len(col) {
			tile := col[:min(out-o, len(col))]
			for j := range tile {
				tile[j] = gw[(o+j)*in+i]
			}
			gradLanes(tile, delta[o:], act[i:], batch, out, in)
			for j, v := range tile {
				gw[(o+j)*in+i] = v
			}
		}
	}
}

// gradLanes adds Σ_r bcast[r*bcastStride] * vec[r*vecStride+l] to every
// lane acc[l], in ascending r: 32 lanes at a time with AVX2, then eight
// and four with SSE2, then one by one.
func gradLanes(acc, vec, bcast []float64, batch, vecStride, bcastStride int) {
	l := 0
	if useAVX2 {
		for ; l+32 <= len(acc); l += 32 {
			avxGrad32(&acc[l], &vec[l], &bcast[0], batch, vecStride*8, bcastStride*8)
		}
	}
	for ; l+8 <= len(acc); l += 8 {
		gradCols8(&acc[l], &vec[l], &bcast[0], batch, vecStride*8, bcastStride*8)
	}
	if l+4 <= len(acc) {
		gradCols4(&acc[l], &vec[l], &bcast[0], batch, vecStride*8, bcastStride*8)
		l += 4
	}
	for ; l < len(acc); l++ {
		s := acc[l]
		for r := 0; r < batch; r++ {
			s += float64(bcast[r*bcastStride] * vec[r*vecStride+l])
		}
		acc[l] = s
	}
}

//go:noescape
func adamStep2(params, grad, m, v *float64, n int, consts *float64)

// adamBulk runs the packed two-lane Adam update over the even prefix of
// the parameter vector and returns how many elements it covered; update()
// finishes the odd tail with the scalar code. Lane-wise SQRTPD/DIVPD
// round exactly like their scalar forms, so both paths agree bitwise.
func adamBulk(params, grad, m, v []float64, lr, inv float64) int {
	n2 := len(params) &^ 1
	if n2 == 0 {
		return 0
	}
	consts := [7]float64{inv, beta1, 1 - beta1, beta2, 1 - beta2, lr, epsilon}
	adamStep2(&params[0], &grad[0], &m[0], &v[0], n2, &consts[0])
	return n2
}

// matvecWT computes z = W·x + bias from the transposed weight layout wt
// (wt[i*out+o]) and, when a is non-nil, a = ReLU(z) in the same pass.
func matvecWT(z, a, wt, bias, x []float64, out, k int) {
	// Reslicing bounds every address the kernels touch: a short slice
	// panics here rather than letting the assembly read past it.
	z, wt, bias, x = z[:out], wt[:k*out], bias[:out], x[:k]
	if a != nil {
		a = a[:out]
	}
	o := 0
	if k > 0 {
		stride := out * 8
		if useAVX2 {
			for ; o+32 <= out; o += 32 {
				avxCols32(&z[o], lane(a, o), &wt[o], &bias[o], &x[0], k, stride)
			}
			for ; o < out; o += 16 {
				avxCols16(&z[o], lane(a, o), &wt[o], &bias[o], &x[0], k, stride, &avxMasks[16-min(out-o, 16)])
			}
			return
		}
		for ; o+16 <= out; o += 16 {
			colsDense16(&z[o], lane(a, o), &wt[o], &bias[o], &x[0], k, stride)
		}
		if o+8 <= out {
			colsDense8(&z[o], lane(a, o), &wt[o], &bias[o], &x[0], k, stride)
			o += 8
		}
		if o+4 <= out {
			colsDense4(&z[o], lane(a, o), &wt[o], &bias[o], &x[0], k, stride)
			o += 4
		}
	}
	for ; o < out; o++ {
		s := bias[o]
		for i := 0; i < k; i++ {
			s += float64(x[i] * wt[i*out+o])
		}
		z[o] = s
		if a != nil {
			a[o] = relu(s)
		}
	}
}

// lane is &a[o], or nil when there is no activation row to write.
func lane(a []float64, o int) *float64 {
	if a == nil {
		return nil
	}
	return &a[o]
}
