//go:build amd64 && !purego

package matrix

// useAVX2 selects gramRow's assembly body. It is set once, here, from the
// CPU's features (AVX2 present and the OS saving YMM state), and nothing but
// the tests, which run both bodies, writes it afterwards.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// gramRowAVX2 is gramRowGo for m ≥ 1 columns of n ≥ 1 rows behind raw
// pointers; see gramrow_amd64.s.
//
//go:noescape
func gramRowAVX2(cj, cols *float64, n, m int, out *float64)

// gramRow adds cj's dot product with each of the len(out) packed columns in
// cols, n rows apiece, into out. gramRowGo defines the result; the assembly
// body computes the same bits.
//
//distlint:hotpath
func gramRow(cj, cols []float64, n int, out []float64) {
	if !useAVX2 || n == 0 || len(out) == 0 {
		gramRowGo(cj, cols, n, out)
		return
	}
	// The assembly reads cj[:n] and cols[:len(out)·n] unchecked.
	_, _ = cj[n-1], cols[len(out)*n-1]
	gramRowAVX2(&cj[0], &cols[0], n, len(out), &out[0])
}
