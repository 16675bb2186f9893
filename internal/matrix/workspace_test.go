package matrix

import (
	"math/rand"
	"slices"
	"testing"
)

func randSymWS(rng *rand.Rand, n int) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

// TestEigSymWorkMatchesEigSym runs one workspace across a sequence of
// matrices — including dimension changes — and requires bit-identical
// results to the allocating path, with the input left untouched.
func TestEigSymWorkMatchesEigSym(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ws := NewEigWorkspace()
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		s := randSymWS(rng, n)
		orig := s.Clone()

		wantVals, wantV, err := EigSym(s)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, gotV, err := EigSymWork(s, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantVals) != len(gotVals) {
			t.Fatalf("trial %d: %d vs %d eigenvalues", trial, len(wantVals), len(gotVals))
		}
		for i := range wantVals {
			if wantVals[i] != gotVals[i] {
				t.Fatalf("trial %d: eigenvalue %d diverges: %v vs %v", trial, i, wantVals[i], gotVals[i])
			}
		}
		if !slices.Equal(wantV.data, gotV.data) {
			t.Fatalf("trial %d: eigenvectors diverge", trial)
		}
		if !slices.Equal(s.data, orig.data) {
			t.Fatalf("trial %d: input mutated", trial)
		}
	}
}
