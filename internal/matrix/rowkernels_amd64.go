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

// normSq16AVX2 sets out[r] = NormSq of the n ≥ 1 elements of rows[r] for
// r < 16, every row of length n.
//
//distlint:spec normSqRowsGo TestRowKernelsBitIdentical
//go:noescape
func normSq16AVX2(rows *[]float64, n int, out *float64)

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

// sweepAxpyAVX2 is sweepAxpyGo with len(d) = i ≥ 1.
//
//distlint:spec sweepAxpyGo TestRowKernelsBitIdentical
//go:noescape
func sweepAxpyAVX2(w *float64, n int, d, e *float64, i int)

// sweepDotsAVX2 is sweepDotsGo with len(d) = i ≥ 1.
//
//distlint:spec sweepDotsGo TestRowKernelsBitIdentical
//go:noescape
func sweepDotsAVX2(w *float64, n int, d, e *float64, i int)

// sweepRank2AVX2 is sweepRank2Go with len(d) = i and rows ≥ 1.
//
//distlint:spec sweepRank2Go TestRowKernelsBitIdentical
//go:noescape
func sweepRank2AVX2(w *float64, n, rows int, d, e *float64, i int)

// normSqRows sets dst[i] = NormSq(rows[i]) for every row: sixteen rows of
// one length at a time in the assembly body, then four at a time.
//
//distlint:hotpath
func normSqRows(rows [][]float64, dst []float64) {
	dst = dst[:len(rows)]
	i := 0
	if useAVX2 {
		for i+16 <= len(rows) && sameLen(rows[i:i+16]) {
			normSq16AVX2(&rows[i], len(rows[i]), &dst[i])
			i += 16
		}
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

// sameLen reports whether every row has the first one's length, and that
// length is not 0.
func sameLen(rows [][]float64) bool {
	n := len(rows[0])
	for _, r := range rows[1:] {
		if len(r) != n {
			return false
		}
	}
	return n > 0
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

// sweepAxpy adds d[j]·w[j·n+k] to e[k] for every j < k < len(d), row j
// after row j−1 (sweepAxpyGo).
//
//distlint:hotpath
func sweepAxpy(w []float64, n int, d, e []float64) {
	i := len(d)
	if !useAVX2 || i == 0 {
		sweepAxpyGo(w, n, d, e)
		return
	}
	_, _ = w[(i-1)*n+i-1], e[i-1]
	sweepAxpyAVX2(&w[0], n, &d[0], &e[0], i)
}

// sweepDots sets e[j] += Σ_{j ≤ k < len(d)} w[j·n+k]·d[k], one chain per row
// in k order (sweepDotsGo).
//
//distlint:hotpath
func sweepDots(w []float64, n int, d, e []float64) {
	i := len(d)
	if !useAVX2 || i == 0 {
		sweepDotsGo(w, n, d, e)
		return
	}
	_, _ = w[(i-1)*n+i-1], e[i-1]
	sweepDotsAVX2(&w[0], n, &d[0], &e[0], i)
}

// sweepRank2 subtracts d[j]·e[k] + e[j]·d[k] from w[j·n+k] for j ≤ k <
// len(d) in each of the first rows rows, then sets d[j] = w[j·n+len(d)−1]
// and w[j·n+len(d)] = 0 (sweepRank2Go).
//
//distlint:hotpath
func sweepRank2(w []float64, n, rows int, d, e []float64) {
	i := len(d)
	if !useAVX2 || rows <= 0 || rows > i {
		sweepRank2Go(w, n, rows, d, e)
		return
	}
	_, _ = w[(rows-1)*n+i], e[i-1]
	sweepRank2AVX2(&w[0], n, rows, &d[0], &e[0], i)
}
