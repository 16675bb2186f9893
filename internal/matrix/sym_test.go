package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reconstruct returns V·diag(vals)·Vᵀ for the first len(vals) columns of V:
// the eigendecomposition tests rebuild their input with it.
func Reconstruct(v *Dense, vals []float64) *Sym {
	s := NewSym(v.rows)
	ReconstructIntoWork(s, v, vals, make([]float64, v.rows))
	return s
}

// ReconstructIntoWork overwrites dst with V·diag(vals)·Vᵀ, one AddOuter per
// nonzero value through col (length ≥ v.rows): the rebuild that followed
// every full decomposition before the P2 ship step ran EigAbove and FD
// kept its rows, which the kernel guards time as their baseline.
func ReconstructIntoWork(dst *Sym, v *Dense, vals, col []float64) {
	col = col[:v.rows]
	dst.Reset()
	for k, lam := range vals {
		if lam == 0 {
			continue
		}
		for i := range col {
			col[i] = v.data[i*v.cols+k]
		}
		dst.AddOuter(lam, col)
	}
}

func TestSymSetAt(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 2, 5)
	if s.At(0, 2) != 5 || s.At(2, 0) != 5 {
		t.Fatal("Set must maintain symmetry")
	}
}

func TestSymAddOuter(t *testing.T) {
	s := NewSym(2)
	s.AddOuter(2, []float64{1, 3})
	// 2·[1,3]ᵀ[1,3] = [[2,6],[6,18]].
	if s.At(0, 0) != 2 || s.At(0, 1) != 6 || s.At(1, 1) != 18 {
		t.Fatalf("AddOuter wrong: %v %v %v", s.At(0, 0), s.At(0, 1), s.At(1, 1))
	}
}

func TestGramMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := randDense(rng, 7, 4)
	g := Gram(a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var want float64 // (AᵀA)ᵢⱼ = Σₖ aₖᵢ·aₖⱼ
			for k := 0; k < a.Rows(); k++ {
				want += a.At(k, i) * a.At(k, j)
			}
			if !almostEqual(g.At(i, j), want, 1e-10) {
				t.Fatalf("Gram(%d,%d) = %v want %v", i, j, g.At(i, j), want)
			}
		}
	}
}

// Property: the quadratic form of a Gram matrix equals ‖Ax‖².
func TestSymQuadIsMatrixNorm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, d := 1+r.Intn(10), 1+r.Intn(6)
		a := randDense(r, n, d)
		g := Gram(a)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		lhs := g.Quad(x)
		var rhs float64
		for k := 0; k < n; k++ {
			ax := Dot(a.Row(k), x)
			rhs += ax * ax
		}
		return math.Abs(lhs-rhs) <= 1e-9*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymTraceIsFrobenius(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randDense(rng, 9, 5)
	if !almostEqual(Gram(a).Trace(), NormSq(a.data), 1e-9*(1+NormSq(a.data))) {
		t.Fatal("trace of Gram != ‖A‖²_F")
	}
}

func TestSymAddSubScaleClone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randSym(rng, 4)
	b := a.Clone()
	a.AddSym(b)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			b.Set(i, j, 2*b.At(i, j))
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEqual(a.At(i, j), b.At(i, j), 1e-12) {
				t.Fatal("A+A != 2A")
			}
		}
	}
	a.SubSym(b)
	if a.MaxAbs() > 1e-12 {
		t.Fatal("2A−2A != 0")
	}
}

// specAddScaledSym is AddScaledSym's body before it ran on axpy: one
// multiply, then one add, per stored entry. The product is written
// float64(w·b) so that no architecture fuses it, which is what the loop
// computed on amd64, where the goldens were written.
func specAddScaledSym(s *Sym, w float64, b *Sym) {
	for i := range s.data {
		s.data[i] += float64(w * b.data[i])
	}
}

// TestAddScaledSymMatchesSpec holds AddScaledSym, on whichever axpy body
// the build runs, Float64bits-equal to specAddScaledSym for w = 1, −1 and
// random weights, over dimensions that take every tail of the assembly
// loop, on storage salted with ±0, subnormals and entries near the largest
// float64 (whose products overflow), triangles left unequal.
func TestAddScaledSymMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-308,
		math.MaxFloat64, -math.MaxFloat64, 1.7e308, -1e300, 1, -1}
	fill := func(s *Sym) {
		for i := range s.data {
			if rng.Intn(3) == 0 {
				s.data[i] = special[rng.Intn(len(special))]
			} else {
				s.data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
	}
	for _, d := range []int{1, 2, 3, 5, 7, 9, 44} {
		for _, w := range []float64{1, -1, rng.NormFloat64(), rng.NormFloat64() * 1e-300, 3.5} {
			for trial := 0; trial < 8; trial++ {
				s, b := NewSym(d), NewSym(d)
				fill(s)
				fill(b)
				want := s.Clone()
				specAddScaledSym(want, w, b)
				s.AddScaledSym(w, b)
				for k, v := range want.data {
					if math.Float64bits(s.data[k]) != math.Float64bits(v) {
						t.Fatalf("d=%d w=%v: entry %d is %x (%g), spec %x (%g)", d, w, k,
							math.Float64bits(s.data[k]), s.data[k], math.Float64bits(v), v)
					}
				}
			}
		}
	}
}

func TestSymReset(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randSym(rng, 3)
	s.Reset()
	if s.MaxAbs() != 0 {
		t.Fatal("Reset did not zero matrix")
	}
}

// SymFromDense copies the symmetric part (S+Sᵀ)/2 of a square matrix.
func SymFromDense(m *Dense) *Sym {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: SymFromDense of %d×%d", m.rows, m.cols))
	}
	s := NewSym(m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s.data[i*m.rows+j] = (m.At(i, j) + m.At(j, i)) / 2
		}
	}
	return s
}

func TestSymFromDense(t *testing.T) {
	m := FromRows([][]float64{{1, 4}, {2, 3}})
	s := SymFromDense(m)
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Fatalf("symmetric part wrong: %v", s.At(0, 1))
	}
	if s.At(0, 0) != 1 || s.At(1, 1) != 3 {
		t.Fatal("diagonal changed")
	}
}

func TestReconstructPartial(t *testing.T) {
	// Reconstruct with only the top eigenpair of a rank-1 matrix recovers it.
	v := []float64{0.6, 0.8}
	s := NewSym(2)
	s.AddOuter(5, v)
	vals, V, err := EigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := Reconstruct(V, vals[:1])
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEqual(rec.At(i, j), s.At(i, j), 1e-10) {
				t.Fatal("rank-1 reconstruction failed")
			}
		}
	}
}
