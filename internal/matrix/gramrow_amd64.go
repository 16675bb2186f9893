//go:build amd64 && !purego

package matrix

import (
	"unsafe"

	"repro/internal/cpu"
)

// useAVX2 selects the assembly body of every kernel — gramUpper and the row
// kernels normSqRows, axpy, rot, sweepAxpy, sweepDots and sweepRank2
// (rowkernels_amd64.go) — together. It is set once, here, from the CPU's
// features (internal/cpu), and nothing but the tests, which run both
// bodies, writes it afterwards.
var useAVX2 = cpu.AVX2

// gramUpperAVX2 is gramRowGo behind raw pointers (n ≥ 1, d ≥ 4) for the
// upper triangle from column d mod 4 on; row i is i·step bytes past first,
// or rows[i] when step is 0. See gramrow_amd64.s.
//
//distlint:spec gramRowGo TestGramRowBitIdentical
//go:noescape
func gramUpperAVX2(rows *[]float64, first *float64, n, d, step int, gram *float64)

// gramUpper adds the upper triangle of BᵀB for the n-row block B (held as
// blockRow describes) into the d×d row-major Gram g, as gramRowGo defines.
//
//distlint:hotpath
func gramUpper(rows [][]float64, flat []float64, n, d int, g []float64) {
	// The assembly's tiles end at column d; left of r = d mod 4 is Go's.
	r := d % 4
	if !useAVX2 || n == 0 {
		r = d
	}
	for j := 0; j < r; j++ {
		gramRowGo(rows, flat, n, d, j, g[j*d+j:j*d+r])
	}
	if r == d {
		return
	}
	// Read unchecked (AddBlock checked row lengths); evenly spaced rows (one
	// buffer's views, as decoders hand over) by step, others by header.
	_ = g[d*d-1]
	hdr, first, step := (*[]float64)(nil), (*float64)(nil), 8*d
	if rows == nil {
		_ = flat[n*d-1]
		first = &flat[0]
	} else {
		_ = rows[n-1]
		hdr, first = &rows[0], &rows[0][0]
		p0 := uintptr(unsafe.Pointer(first))
		step = int(uintptr(unsafe.Pointer(&rows[min(1, n-1)][0])) - p0)
		for i := 2; i < n; i++ {
			if int(uintptr(unsafe.Pointer(&rows[i][0]))-p0) != i*step {
				step = 0
			}
		}
	}
	gramUpperAVX2(hdr, first, n, d, step, &g[0])
}
