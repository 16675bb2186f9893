//go:build amd64 && !purego

package service

import (
	"slices"

	"repro/internal/cpu"
)

// useAVX2 selects scanRow's assembly body. It is set once, here, from the
// CPU's features, and nothing but the tests, which run both bodies, writes
// it afterwards.
var useAVX2 = cpu.AVX2

// rowDecimal is one number token scanRowAVX2 took: man·10^−frac, read
// from nd digits, negative when neg is 1, at bytes past the call's i. The
// assembly writes the fields at offsets 0, 8, 12, 13 and 14.
type rowDecimal struct {
	man  uint64
	at   uint32
	nd   uint8
	frac uint8
	neg  uint8
}

// rowDecimals is how many tokens one scanRowAVX2 call hands back: a row of
// the benchmark's 44 columns is one call.
const rowDecimals = 48

// rowScratch holds the decimals one scanRowAVX2 call hands back. A scanner
// keeps one for its whole batch, so no row pays to zero its 768 bytes.
type rowScratch [rowDecimals]rowDecimal

// scanRowAVX2 walks the row's number tokens from d[i:] as scanRowGo does,
// each into the next entry of dec, and returns how many it took and the
// cursor. With done set the cursor is at the delimiter that ends the walk
// (a ']', or a ',' followed by a byte up to ' '); otherwise it is at the
// first byte of the next token, which the kernel did not take or had no
// room for. It takes a token -?(0|[1-9][0-9]*)(.[0-9]+)? of at most 19
// digits and 31 bytes followed by ',' or ']', when the 32 bytes from its
// start lie within cap(d) and it starts 32 bytes or more into d. See
// ingestjson_amd64.s.
//
//distlint:spec scanRowGo FuzzScanRow
//go:noescape
func scanRowAVX2(d []byte, i int, dec *rowScratch) (n, next int, done bool)

// scanRow is scan over a scratch of its own, the entry point the scan
// tests share with the portable build.
func scanRow(d []byte, i int, flat []float64) ([]float64, int, string) {
	return new(rowScratch).scan(d, i, flat)
}

// scan reads a row's numbers from d[i:] into flat, as scanRowGo
// specifies. The kernel walks the tokens it takes and decimalToFloat
// rounds the decimals it hands back (floatAt, where that declines, reads
// the token again); floatAt reads each token the kernel does not take, and
// the walk re-enters the kernel after it.
//
//distlint:hotpath
func (dec *rowScratch) scan(d []byte, i int, flat []float64) ([]float64, int, string) {
	if !useAVX2 {
		return scanRowGo(d, i, flat)
	}
	var v float64
	var bad string
	for {
		n, next, done := scanRowAVX2(d, i, dec)
		k := len(flat)
		flat = slices.Grow(flat, n)[:k+n] //distlint:alloc-ok first growth to the high-water batch size
		for j, x := range dec[:n] {
			v, ok := decimalToFloat(x.man, int(x.nd), -int(x.frac), uint64(x.neg)<<63)
			if !ok {
				v, _, _ = floatAt(d, i+int(x.at))
			}
			flat[k+j] = v
		}
		if i = next; done {
			return flat, i, ""
		}
		if n == rowDecimals {
			continue
		}
		v, i, bad = floatAt(d, i)
		flat = append(flat, v) //distlint:alloc-ok first growth to the high-water batch size
		if bad != "" || d[i] != ',' || d[i+1] <= ' ' {
			return flat, i, bad
		}
		i++
	}
}
