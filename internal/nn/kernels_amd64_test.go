//go:build amd64

package nn

// dispatchPaths returns matvecWT at every dispatch level this CPU runs:
// the SSE2 tile always, the AVX2 tile when CPUID reports it.
func dispatchPaths() []matvecPath {
	at := func(avx2 bool) matvecFunc {
		return func(z, a, wt, bias, x []float64, out, k int) {
			defer func(old bool) { useAVX2 = old }(useAVX2)
			useAVX2 = avx2
			matvecWT(z, a, wt, bias, x, out, k)
		}
	}
	paths := []matvecPath{{"sse2", at(false)}}
	if hasAVX2 {
		paths = append(paths, matvecPath{"avx2", at(true)})
	}
	return paths
}

// gradDispatchPaths returns gradWT at every dispatch level this CPU runs,
// as dispatchPaths does for matvecWT.
func gradDispatchPaths() []gradPath {
	at := func(avx2 bool) gradFunc {
		return func(gw, act, delta []float64, batch, in, out int) {
			defer func(old bool) { useAVX2 = old }(useAVX2)
			useAVX2 = avx2
			gradWT(gw, act, delta, batch, in, out)
		}
	}
	paths := []gradPath{{"sse2", at(false)}}
	if hasAVX2 {
		paths = append(paths, gradPath{"avx2", at(true)})
	}
	return paths
}
