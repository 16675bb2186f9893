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

// scanRowAVX2 walks the row's number tokens from d[i:] as scanRowGo does,
// each rounded into the next element of out, and returns how many it took
// and the cursor. With done set the cursor is at the delimiter that ends
// the walk (a ']', or a ',' followed by a byte up to ' '); otherwise it is
// at the first byte of the next token, which the kernel did not take or had
// no room for. It takes a token -?(0|[1-9][0-9]*)(.[0-9]+)? of at most 24
// digits, 19 of them significant, and 31 bytes followed by ',' or ']', when
// the 32 bytes from its start lie within cap(d), it starts 32 bytes or more
// into d and decimalToFloat's rounding decides it. See ingestjson_amd64.s.
//
//distlint:spec scanRowGo FuzzScanRow
//go:noescape
func scanRowAVX2(d []byte, i int, out []float64) (n, next int, done bool)

// scanRow reads a row's numbers from d[i:] into flat, as scanRowGo
// specifies. The kernel takes the tokens it can into the room past
// len(flat), grown to at least 64 before each call (a row of the
// benchmark's 44 columns in one); floatAt reads each token the kernel does
// not take, and the walk re-enters the kernel after it.
//
//distlint:hotpath
func scanRow(d []byte, i int, flat []float64) ([]float64, int, string) {
	if !useAVX2 {
		return scanRowGo(d, i, flat)
	}
	var v float64
	var bad string
	for {
		k := len(flat)
		flat = slices.Grow(flat, 64) //distlint:alloc-ok first growth to the high-water batch size
		n, next, done := scanRowAVX2(d, i, flat[k:cap(flat)])
		if flat, i = flat[:k+n], next; done {
			return flat, i, ""
		}
		if len(flat) == cap(flat) {
			continue // out of room, not a token the kernel declined
		}
		v, i, bad = floatAt(d, i)
		flat = append(flat, v) //distlint:alloc-ok the room is there
		if bad != "" || d[i] != ',' || d[i+1] <= ' ' {
			return flat, i, bad
		}
		i++
	}
}
