package matrix

// The portable bodies of the row kernels under the P2 site step — the block
// row norms, the rank-1 Gram update, the eigensolver's plane rotation and
// the three sweeps of each Householder reduction step — and the
// specification of every other body: an assembly body must give the same
// bits (CONTRIBUTING.md, "Kernels"). The dispatching wrappers (normSqRows,
// axpy, rot, sweepAxpy, sweepDots, sweepRank2) live in rowkernels_amd64.go
// and rowkernels_generic.go. Products are converted to float64 so that no
// architecture fuses them into a differently rounded multiply-add.

// normSqRowsGo sets dst[i] = NormSq(rows[i]) for every row.
//
//distlint:hotpath
func normSqRowsGo(rows [][]float64, dst []float64) {
	dst = dst[:len(rows)]
	for i, row := range rows {
		dst[i] = NormSq(row)
	}
}

// axpyGo adds alpha·x[k] to y[k] for every k < len(y).
//
//distlint:hotpath
func axpyGo(alpha float64, x, y []float64) {
	x = x[:len(y)]
	for k, v := range x {
		y[k] += float64(alpha * v)
	}
}

// rotGo applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y) to every
// pair (x[k], y[k]), k < len(x).
//
//distlint:hotpath
func rotGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, a := range x {
		b := y[k]
		y[k] = float64(s*a) + float64(c*b)
		x[k] = float64(c*a) - float64(s*b)
	}
}

// The three sweeps of Householder reduction step i = len(d) (householder in
// eigen.go), over the rows j < i of the matrix held transposed in w with
// row length n: d is the Householder vector u_i, e the step's p = A·u/h
// as it is built.

// sweepAxpyGo adds d[j]·w[j·n+k] to e[k] for every j < k < len(d), row j
// after row j−1: the half of A·u that the rows below the diagonal give.
//
//distlint:hotpath
func sweepAxpyGo(w []float64, n int, d, e []float64) {
	i := len(d)
	for j, f := range d {
		axpyGo(f, w[j*n+j+1:j*n+i], e[j+1:i])
	}
}

// sweepDotsGo sets e[j] = e[j] + Σ_{j ≤ k < len(d)} w[j·n+k]·d[k] for every
// j < len(d), each sum one chain in k order: the half of A·u that the
// diagonal and the rows above it give. Four rows' chains run side by side;
// each reads only its own e[j].
//
//distlint:hotpath
func sweepDotsGo(w []float64, n int, d, e []float64) {
	i := len(d)
	d, e = d[:i], e[:i]
	j := 0
	for ; j+4 <= i; j += 4 {
		w0, w1 := w[j*n:][:i], w[(j+1)*n:][:i]
		w2, w3 := w[(j+2)*n:][:i], w[(j+3)*n:][:i]
		d0, d1, d2, d3 := d[j], d[j+1], d[j+2], d[j+3]
		g0 := e[j] + float64(w0[j]*d0)
		g0 += float64(w0[j+1] * d1)
		g0 += float64(w0[j+2] * d2)
		g0 += float64(w0[j+3] * d3)
		g1 := e[j+1] + float64(w1[j+1]*d1)
		g1 += float64(w1[j+2] * d2)
		g1 += float64(w1[j+3] * d3)
		g2 := e[j+2] + float64(w2[j+2]*d2)
		g2 += float64(w2[j+3] * d3)
		g3 := e[j+3] + float64(w3[j+3]*d3)
		for k := j + 4; k < i; k++ {
			dk := d[k]
			g0 += float64(w0[k] * dk)
			g1 += float64(w1[k] * dk)
			g2 += float64(w2[k] * dk)
			g3 += float64(w3[k] * dk)
		}
		e[j], e[j+1], e[j+2], e[j+3] = g0, g1, g2, g3
	}
	for ; j < i; j++ {
		wj := w[j*n:][:i]
		g := e[j] + float64(wj[j]*d[j])
		for k := j + 1; k < i; k++ {
			g += float64(wj[k] * d[k])
		}
		e[j] = g
	}
}

// sweepRank2Go subtracts d[j]·e[k] + e[j]·d[k] from w[j·n+k] for every
// j ≤ k < len(d) of the first rows rows, then sets d[j] = w[j·n+len(d)−1]
// and w[j·n+len(d)] = 0: the rank-2 update A ← A − u·qᵀ − q·uᵀ, and the
// next step's Householder vector read off as it goes. Row j reads d and e
// from index j on, which no earlier row writes.
//
//distlint:hotpath
func sweepRank2Go(w []float64, n, rows int, d, e []float64) {
	i := len(d)
	e = e[:i]
	for j := range rows {
		f, g := d[j], e[j]
		wj := w[j*n:][:i]
		for k := j; k < i; k++ {
			wj[k] -= float64(f*e[k]) + float64(g*d[k])
		}
		d[j] = wj[i-1]
		w[j*n+i] = 0
	}
}
