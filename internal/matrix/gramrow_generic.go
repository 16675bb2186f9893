//go:build !amd64 || purego

package matrix

// gramUpper adds the upper triangle of BᵀB for the n-row block B (held as
// blockRow describes) into the d×d row-major Gram g: the portable body.
//
//distlint:hotpath
func gramUpper(rows [][]float64, flat []float64, n, d int, g []float64) {
	for j := 0; j < d; j++ {
		gramRowGo(rows, flat, n, d, j, g[j*d+j:(j+1)*d])
	}
}
