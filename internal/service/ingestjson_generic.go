//go:build !amd64 || purego

package service

// scanRow is scanRowGo: architectures with no assembly body and the purego
// build tag run the portable walk.
//
//distlint:hotpath
func scanRow(d []byte, i int, flat []float64) ([]float64, int, string) {
	return scanRowGo(d, i, flat)
}
