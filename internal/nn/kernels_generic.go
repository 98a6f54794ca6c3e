//go:build !amd64

package nn

// Off amd64 the portable loops in kernels.go are the production kernels.

func matvecWT(z, a, wt, bias, x []float64, out, k int) { matvecWTGo(z, a, wt, bias, x, out, k) }

func gradWT(gw, act, delta []float64, batch, in, out int) { gradWTGo(gw, act, delta, batch, in, out) }

// adamBulk is a no-op on platforms without the packed kernels; update()
// runs the scalar loop over the whole parameter vector.
func adamBulk(params, grad, m, v []float64, lr, inv float64) int {
	return 0
}
