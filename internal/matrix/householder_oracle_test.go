package matrix

import "math"

// oracleHouseholder is householder as it was before its three sweeps became
// one kernel call each: a kernel call a row for the axpy sweep and for the
// rank-2 update, and the four-row dot block in Go. The rank-2 kernel it
// called a row is gone; a one-row sweepRank2 over the row's own view does
// the same (the update, then d[j] and w[j·n+i]). It is the bit oracle of
// the fused reduction (TestSiteStepBothBodiesBitIdentical) and the before
// side of TestReductionKernelGuard.
func oracleHouseholder(w []float64, n int, d, e []float64) {
	d, e = d[:n], e[:n]
	for j := range d {
		d[j] = w[j*n+n-1]
	}

	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		di, ei := d[:i], e[:i]
		wi := w[i*n:][:i] // V(0..i-1, i)
		for _, x := range di {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := range di {
				di[j] = w[j*n+i-1]
				w[j*n+i] = 0
				wi[j] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := range di {
				di[k] /= scale
				h += float64(di[k] * di[k])
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= float64(f * g)
			d[i-1] = f - g
			for j := range ei {
				ei[j] = 0
			}

			copy(wi, di)
			for j, f := range di {
				axpy(f, w[j*n+j+1:j*n+i], ei[j+1:])
			}
			j := 0
			for ; j+4 <= i; j += 4 {
				w0, w1 := w[j*n:][:i], w[(j+1)*n:][:i]
				w2, w3 := w[(j+2)*n:][:i], w[(j+3)*n:][:i]
				d0, d1, d2, d3 := di[j], di[j+1], di[j+2], di[j+3]
				g0 := ei[j] + float64(w0[j]*d0)
				g0 += float64(w0[j+1] * d1)
				g0 += float64(w0[j+2] * d2)
				g0 += float64(w0[j+3] * d3)
				g1 := ei[j+1] + float64(w1[j+1]*d1)
				g1 += float64(w1[j+2] * d2)
				g1 += float64(w1[j+3] * d3)
				g2 := ei[j+2] + float64(w2[j+2]*d2)
				g2 += float64(w2[j+3] * d3)
				g3 := ei[j+3] + float64(w3[j+3]*d3)
				for k := j + 4; k < i; k++ {
					dk := di[k]
					g0 += float64(w0[k] * dk)
					g1 += float64(w1[k] * dk)
					g2 += float64(w2[k] * dk)
					g3 += float64(w3[k] * dk)
				}
				ei[j], ei[j+1], ei[j+2], ei[j+3] = g0, g1, g2, g3
			}
			for ; j < i; j++ {
				wj := w[j*n:][:i] // V(0..i-1, j)
				g := ei[j] + float64(wj[j]*di[j])
				for k := j + 1; k < i; k++ {
					g += float64(wj[k] * di[k])
				}
				ei[j] = g
			}
			f = 0
			for j := range ei {
				ei[j] /= h
				f += float64(ei[j] * di[j])
			}
			hh := f / (h + h)
			axpy(-hh, di, ei)
			for j := range di {
				sweepRank2(w[j*n+j:], n, 1, di[j:], ei[j:])
			}
		}
		d[i] = h
	}
}
