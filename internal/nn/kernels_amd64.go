//go:build amd64

package nn

// The kernels in kernels_amd64.s process a tile of output columns of the
// transposed weight layout at a time: 32 lanes in eight YMM registers
// when the CPU has AVX2, then one masked pass of up to 16 lanes per
// remainder; 16 lanes in eight XMM registers otherwise, then 8- and
// 4-lane tiles and the scalar strided loop. Every path accumulates
// bias-first in ascending input order, so all of them are bit-identical
// to each other and to the portable loops in kernels.go.

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
func gradCols8(gw, act, delta *float64, batch, actStride, deltaStride int)

//go:noescape
func gradCols4(gw, act, delta *float64, batch, actStride, deltaStride int)

// gradWT accumulates the mini-batch weight gradient gw[o*in+i] +=
// Σ_r delta[r*out+o] * act[r*in+i], eight input columns at a time. Each
// element's sum runs over ascending batch row r starting from gw's
// current value — the same chain as the per-sample reference backward.
func gradWT(gw, act, delta []float64, batch, in, out int) {
	for o := 0; o < out; o++ {
		gwRow := gw[o*in : (o+1)*in]
		i := 0
		if batch > 0 {
			for ; i+8 <= in; i += 8 {
				gradCols8(&gwRow[i], &act[i], &delta[o], batch, in*8, out*8)
			}
			if i+4 <= in {
				gradCols4(&gwRow[i], &act[i], &delta[o], batch, in*8, out*8)
				i += 4
			}
		}
		for ; i < in; i++ {
			s := gwRow[i]
			for r := 0; r < batch; r++ {
				s += float64(delta[r*out+o] * act[r*in+i])
			}
			gwRow[i] = s
		}
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
