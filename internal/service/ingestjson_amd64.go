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

// scanRowAVX2 reads the row's number tokens from d[i:] as scanRowGo
// does, each rounded into the next element of out, and returns how many it
// took and the cursor. It first indexes the row, finding the ends of up to
// min(len(out), 64) tokens before it reads any; then it takes them in
// order. With done set the cursor is at the delimiter that ends the walk
// (a ']', or a ',' followed by a byte up to ' '); otherwise it is at the
// first byte of the next token, which the kernel did not take or had no
// room for. It takes a token -?(0|[1-9][0-9]*)(.[0-9]+)? of at most 24
// digits, 19 of them significant, followed by ',' or ']', when the index
// reached it (no byte outside ',' … '9' before it in the row, and its end
// within cap(d)), it starts 32 bytes or more into d and decimalToFloat's
// rounding decides it. See ingestjson_amd64.s.
//
//distlint:spec scanRowGo FuzzScanRow
//go:noescape
func scanRowAVX2(d []byte, i int, out []float64) (n, next int, done bool)

// scanRow reads a row's numbers from d[i:] into flat, as scanRowGo
// specifies. The kernel takes the tokens it can into the room past
// len(flat), at most 64 a call (a row of the benchmark's 44 columns in
// one); floatAt reads each token the kernel does not take, and the walk
// re-enters the kernel after it. The kernel indexes as many tokens as it
// has room for before it rounds any, so after a token it declined the room
// shrinks to one more than twice what the call took: a row of tokens
// the kernel declines one by one is not indexed 64 tokens ahead per token.
//
//distlint:hotpath
func scanRow(d []byte, i int, flat []float64) ([]float64, int, string) {
	if !useAVX2 {
		return scanRowGo(d, i, flat)
	}
	var v float64
	var bad string
	room := 64
	for {
		k := len(flat)
		flat = slices.Grow(flat, room) //distlint:alloc-ok first growth to the high-water batch size
		n, next, done := scanRowAVX2(d, i, flat[k:k+room])
		if flat, i = flat[:k+n], next; done {
			return flat, i, ""
		}
		if n == room {
			room = 64
			continue // out of room, not a token the kernel declined
		}
		room = min(2*n+1, 64)
		v, i, bad = floatAt(d, i)
		flat = append(flat, v) //distlint:alloc-ok the room is there
		if bad != "" || d[i] != ',' || d[i+1] <= ' ' {
			return flat, i, bad
		}
		i++
	}
}
