//go:build amd64 && !purego

package service

import (
	"testing"
	"unsafe"

	"repro/internal/cpu"
)

// rowBodies are the bodies of scanRow that can run here: the portable one,
// and the AVX2 one where the CPU has it.
var rowBodies = func() []rowBody {
	bodies := []rowBody{{"portable", false}}
	if cpu.AVX2 {
		bodies = append(bodies, rowBody{"avx2", true})
	}
	return bodies
}()

// use selects the body for scanRow and returns what restores init's choice.
func (rb rowBody) use() (restore func()) {
	was := useAVX2
	useAVX2 = rb.avx2
	return func() { useAVX2 = was }
}

// TestRowDecimalLayout holds rowDecimal to the offsets and size the
// assembly writes it at.
func TestRowDecimalLayout(t *testing.T) {
	var x rowDecimal
	got := [...]uintptr{unsafe.Offsetof(x.man), unsafe.Offsetof(x.at), unsafe.Offsetof(x.nd), unsafe.Offsetof(x.frac), unsafe.Offsetof(x.neg), unsafe.Sizeof(x)}
	if got != [...]uintptr{0, 8, 12, 13, 14, 16} {
		t.Fatalf("rowDecimal offsets man, at, nd, frac, neg and size %v; ingestjson_amd64.s writes 0, 8, 12, 13, 14 and steps 16", got)
	}
	if !cpu.AVX2 {
		t.Log("SKIPPED in part: no AVX2 on this CPU, the tests run scanRow's portable body alone")
	}
}
