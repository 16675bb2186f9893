//go:build amd64 && !purego

package service

import "repro/internal/cpu"

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
