//go:build amd64 && !purego

package matrix

// The AVX2 bodies of the row kernels, behind raw pointers; see
// rowkernels_amd64.s. Each wrapper bounds-checks what its body reads and
// writes, then hands over the first elements.

// normSq4AVX2 sets out[r] = NormSq of the n ≥ 1 elements at rr for r < 4.
//
//distlint:spec normSqRowsGo TestRowKernelsBitIdentical
//go:noescape
func normSq4AVX2(r0, r1, r2, r3 *float64, n int, out *float64)

// axpyAVX2 is axpyGo over n ≥ 1 elements.
//
//distlint:spec axpyGo TestRowKernelsBitIdentical
//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

// rotAVX2 is rotGo over n ≥ 1 elements.
//
//distlint:spec rotGo TestRowKernelsBitIdentical
//go:noescape
func rotAVX2(x, y *float64, n int, c, s float64)

// subScaled2AVX2 is subScaled2Go over n ≥ 1 elements with f = a and g = b
// (g names a register in the assembler).
//
//distlint:spec subScaled2Go TestRowKernelsBitIdentical
//go:noescape
func subScaled2AVX2(w, x, y *float64, n int, a, b float64)

// normSqRows sets dst[i] = NormSq(rows[i]) for every row, four rows of one
// length at a time in the assembly body.
//
//distlint:hotpath
func normSqRows(rows [][]float64, dst []float64) {
	dst = dst[:len(rows)]
	i := 0
	if useAVX2 {
		for ; i+4 <= len(rows); i += 4 {
			r0, r1, r2, r3 := rows[i], rows[i+1], rows[i+2], rows[i+3]
			n := len(r0)
			if n == 0 || len(r1) != n || len(r2) != n || len(r3) != n {
				normSqRowsGo(rows[i:i+4], dst[i:i+4])
				continue
			}
			normSq4AVX2(&r0[0], &r1[0], &r2[0], &r3[0], n, &dst[i])
		}
	}
	normSqRowsGo(rows[i:], dst[i:])
}

// axpy adds alpha·x[k] to y[k] for every k < len(y).
//
//distlint:hotpath
func axpy(alpha float64, x, y []float64) {
	if !useAVX2 || len(y) == 0 {
		axpyGo(alpha, x, y)
		return
	}
	_ = x[len(y)-1]
	axpyAVX2(alpha, &x[0], &y[0], len(y))
}

// rot applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// elementwise over len(x) pairs.
//
//distlint:hotpath
func rot(x, y []float64, c, s float64) {
	if !useAVX2 || len(x) == 0 {
		rotGo(x, y, c, s)
		return
	}
	_ = y[len(x)-1]
	rotAVX2(&x[0], &y[0], len(x), c, s)
}

// subScaled2 subtracts f·x[k] + g·y[k] from w[k] for every k < len(w).
//
//distlint:hotpath
func subScaled2(w, x, y []float64, f, g float64) {
	if !useAVX2 || len(w) == 0 {
		subScaled2Go(w, x, y, f, g)
		return
	}
	_, _ = x[len(w)-1], y[len(w)-1]
	subScaled2AVX2(&w[0], &x[0], &y[0], len(w), f, g)
}
