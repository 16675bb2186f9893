//go:build !amd64 || purego

package matrix

// gramRow adds cj's dot product with each of the len(out) packed columns in
// cols, n rows apiece, into out: the portable body, for architectures with
// no assembly one and for the purego build tag.
//
//distlint:hotpath
func gramRow(cj, cols []float64, n int, out []float64) {
	gramRowGo(cj, cols, n, out)
}
