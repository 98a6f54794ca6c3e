package nn

// Portable kernels: plain scalar loops over the transposed weight layout,
// accumulating bias-first in ascending input order. They are the
// production path off amd64 (kernels_generic.go) and, being untagged, the
// kernel tests run them on every architecture against the same reference
// as the assembly. Each product is converted to float64 before it is
// added: the explicit conversion forbids the compiler from fusing the
// multiply-add into an FMA (which arm64 and GOAMD64=v3 builds would
// otherwise do), so every path rounds twice, like the reference.

// relu is the activation every path shares: v > 0 ? v : 0, so −0 and NaN
// map to +0.
func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// matvecWTGo computes z = W·x + bias from the transposed weight layout wt
// (wt[i*out+o]) and, when a is non-nil, a = ReLU(z).
func matvecWTGo(z, a, wt, bias, x []float64, out, k int) {
	z = z[:out]
	copy(z, bias[:out])
	for i := 0; i < k; i++ {
		xv := x[i]
		row := wt[i*out : i*out+out]
		for o := range z {
			z[o] += float64(row[o] * xv)
		}
	}
	if a != nil {
		for o, v := range z {
			a[o] = relu(v)
		}
	}
}

// gradWTGo accumulates the mini-batch weight gradient gw[o*in+i] +=
// Σ_r delta[r*out+o] * act[r*in+i] over ascending batch row r, matching
// the per-sample reference backward chain element for element. Zero
// deltas are skipped: their terms are exact ±0, which cannot change a
// running gradient sum.
func gradWTGo(gw, act, delta []float64, batch, in, out int) {
	for r := 0; r < batch; r++ {
		actRow := act[r*in : (r+1)*in]
		for o := 0; o < out; o++ {
			d := delta[r*out+o]
			if d == 0 {
				continue
			}
			row := gw[o*in : (o+1)*in]
			for i, a := range actRow {
				row[i] += float64(d * a)
			}
		}
	}
}
