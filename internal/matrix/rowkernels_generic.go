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
func sweepAxpy(w []float64, n int, d, e []float64) { sweepAxpyGo(w, n, d, e) }

//distlint:hotpath
func sweepDots(w []float64, n int, d, e []float64) { sweepDotsGo(w, n, d, e) }

//distlint:hotpath
func sweepRank2(w []float64, n, rows int, d, e []float64) { sweepRank2Go(w, n, rows, d, e) }
