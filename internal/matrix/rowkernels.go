package matrix

// The portable bodies of the row kernels under the P2 site step — the block
// row norms, the rank-1 Gram update, and the eigensolver's plane rotation
// and Householder updates — and the specification of every other body: an
// assembly body must give the same bits (CONTRIBUTING.md, "Kernels"). The
// dispatching wrappers (normSqRows, axpy, rot, subScaled2) live in
// rowkernels_amd64.go and rowkernels_generic.go.

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
		y[k] += alpha * v
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
		y[k] = s*a + c*b
		x[k] = c*a - s*b
	}
}

// subScaled2Go subtracts f·x[k] + g·y[k] from w[k] for every k < len(w).
//
//distlint:hotpath
func subScaled2Go(w, x, y []float64, f, g float64) {
	x, y = x[:len(w)], y[:len(w)]
	for k := range w {
		w[k] -= f*x[k] + g*y[k]
	}
}
