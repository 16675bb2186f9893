//go:build !amd64 || purego

package matrix

// The row kernels' portable bodies, for architectures with no assembly
// body and for the purego build tag; rowkernels.go documents each.

//distlint:hotpath
func normSqRows(rows [][]float64, dst []float64) { normSqRowsGo(rows, dst) }

//distlint:hotpath
func axpy(alpha float64, x, y []float64) { axpyGo(alpha, x, y) }

//distlint:hotpath
func rot(x, y []float64, c, s float64) { rotGo(x, y, c, s) }

//distlint:hotpath
func subScaled2(w, x, y []float64, f, g float64) { subScaled2Go(w, x, y, f, g) }
