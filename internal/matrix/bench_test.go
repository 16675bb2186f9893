package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchSym(n int) *Sym {
	rng := rand.New(rand.NewSource(1))
	return randSym(rng, n)
}

// benchEigSym times one decomposition of s: through EigSym, which allocates
// its workspace each call, or — work — through EigSymWork on a warm one, the
// way the trackers call it.
func benchEigSym(b *testing.B, s *Sym, work bool) {
	var ws *EigWorkspace
	if work {
		ws = NewEigWorkspace()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigSymWork(s, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigSym44(b *testing.B)     { benchEigSym(b, benchSym(44), false) }
func BenchmarkEigSym90(b *testing.B)     { benchEigSym(b, benchSym(90), false) }
func BenchmarkEigSymWork44(b *testing.B) { benchEigSym(b, benchSym(44), true) }
func BenchmarkEigSymWork90(b *testing.B) { benchEigSym(b, benchSym(90), true) }

// BenchmarkEigSymOracle is the row-major body EigSymWork replaced, on a warm
// workspace and the same matrices: the README's before column.
func BenchmarkEigSymOracle(b *testing.B) {
	for _, n := range []int{44, 90} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, o := benchSym(n), &oracleEig{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := o.eigSym(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkJacobiEigSym44(b *testing.B) {
	s := benchSym(44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := JacobiEigSym(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGramAddOuter90(b *testing.B) {
	g := NewSym(90)
	row := make([]float64, 90)
	rng := rand.New(rand.NewSource(4))
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddOuter(1, row)
	}
}

func BenchmarkSpectralNormSym90(b *testing.B) {
	s := benchSym(90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpectralNormSym(s); err != nil {
			b.Fatal(err)
		}
	}
}
