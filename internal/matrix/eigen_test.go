package matrix

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkEig verifies s = V·diag(vals)·Vᵀ, V orthonormal, vals descending.
func checkEig(t *testing.T, s *Sym, vals []float64, V *Dense, tol float64) {
	t.Helper()
	n := s.Dim()
	if len(vals) != n {
		t.Fatalf("got %d eigenvalues want %d", len(vals), n)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(vals))) {
		t.Fatalf("eigenvalues not sorted descending: %v", vals)
	}
	if !IsOrthonormalCols(V, tol) {
		t.Fatal("eigenvectors not orthonormal")
	}
	rec := Reconstruct(V, vals)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !almostEqual(rec.At(i, j), s.At(i, j), tol*(1+s.MaxAbs())) {
				t.Fatalf("reconstruction mismatch at (%d,%d): got %v want %v",
					i, j, rec.At(i, j), s.At(i, j))
			}
		}
	}
}

func TestEigSymDiagonal(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 2)
	s.Set(1, 1, 5)
	s.Set(2, 2, -1)
	vals, V, err := EigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, -1}
	for i, w := range want {
		if !almostEqual(vals[i], w, 1e-12) {
			t.Fatalf("vals[%d] = %v want %v", i, vals[i], w)
		}
	}
	checkEig(t, s, vals, V, 1e-12)
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(1, 1, 2)
	s.Set(0, 1, 1)
	vals, V, err := EigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, 1e-12) || !almostEqual(vals[1], 1, 1e-12) {
		t.Fatalf("vals = %v want [3 1]", vals)
	}
	checkEig(t, s, vals, V, 1e-12)
}

func TestEigSymEmptyAndSingle(t *testing.T) {
	vals, _, err := EigSym(NewSym(0))
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty eig: vals=%v err=%v", vals, err)
	}
	s := NewSym(1)
	s.Set(0, 0, -4)
	vals, V, err := EigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != -4 || math.Abs(math.Abs(V.At(0, 0))-1) > 1e-15 {
		t.Fatalf("1×1 eig wrong: vals=%v V=%v", vals, V)
	}
}

func TestEigSymRandomReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 5, 10, 25, 60} {
		s := randSym(rng, n)
		vals, V, err := EigSym(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEig(t, s, vals, V, 1e-9)
	}
}

func TestEigSymGramPSD(t *testing.T) {
	// Eigenvalues of a Gram matrix must be nonnegative (within tolerance).
	rng := rand.New(rand.NewSource(8))
	a := randDense(rng, 30, 8)
	g := Gram(a)
	vals, _, err := EigSym(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v < -1e-9 {
			t.Fatalf("Gram eigenvalue %d negative: %v", i, v)
		}
	}
	// Trace = sum of eigenvalues = ‖A‖²_F.
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if !almostEqual(sum, NormSq(a.data), 1e-8*(1+NormSq(a.data))) {
		t.Fatalf("Σλ = %v want ‖A‖²_F = %v", sum, NormSq(a.data))
	}
}

func TestEigSymRepeatedEigenvalues(t *testing.T) {
	// Identity scaled: all eigenvalues equal.
	s := NewSym(5)
	for i := 0; i < 5; i++ {
		s.Set(i, i, 3)
	}
	vals, V, err := EigSym(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if !almostEqual(v, 3, 1e-12) {
			t.Fatalf("eigenvalue %v want 3", v)
		}
	}
	checkEig(t, s, vals, V, 1e-12)
}

// Property: EigSym and JacobiEigSym agree on eigenvalues for random
// symmetric matrices (the two independent implementations cross-check).
func TestEigSymMatchesJacobi(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		s := randSym(r, n)
		v1, _, err1 := EigSym(s)
		v2, _, err2 := JacobiEigSym(s)
		if err1 != nil || err2 != nil {
			return false
		}
		scale := 1 + s.MaxAbs()*float64(n)
		for i := range v1 {
			if math.Abs(v1[i]-v2[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 4, 9, 20} {
		s := randSym(rng, n)
		vals, V, err := JacobiEigSym(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkEig(t, s, vals, V, 1e-9)
	}
}

// TestJacobiRefusesNonFinite pins JacobiEigSym's error on a NaN or ±Inf
// entry: off the diagonal its stop test used to pass on the Inf MaxAbs and
// return diag(1,2,3)'s diagonal as converged, and on it, an Inf eigenvalue.
func TestJacobiRefusesNonFinite(t *testing.T) {
	for _, c := range []struct {
		name string
		i, j int
		x    float64
	}{
		{"+Inf at (0,1)", 0, 1, math.Inf(1)},
		{"+Inf on the diagonal", 1, 1, math.Inf(1)},
		{"−Inf at (2,0)", 2, 0, math.Inf(-1)},
		{"NaN at (1,2)", 1, 2, math.NaN()},
	} {
		s := NewSym(3)
		for i := 0; i < 3; i++ {
			s.Set(i, i, float64(i+1))
		}
		s.Set(c.i, c.j, c.x)
		if vals, _, err := JacobiEigSym(s); !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s: JacobiEigSym = %v, err %v; want ErrNoConvergence", c.name, vals, err)
		}
	}
}

func TestSpectralNormSymAgainstPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		s := randSym(rng, 12)
		exact, err := SpectralNormSym(s)
		if err != nil {
			t.Fatal(err)
		}
		approx := PowerIterationSym(s, 500, rng)
		if math.Abs(exact-approx) > 1e-6*(1+exact) {
			t.Fatalf("trial %d: spectral %v vs power iteration %v", trial, exact, approx)
		}
	}
}

func TestCovarianceDiffNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randSym(rng, 6)
	h := g.Clone()
	norm, err := CovarianceDiffNorm(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if norm > 1e-14 {
		t.Fatalf("‖G−G‖₂ = %v want 0", norm)
	}
	// Perturb one diagonal entry by delta: norm ≥ delta is impossible to
	// exceed for rank-1 diagonal perturbation — it's exactly delta.
	h.Set(2, 2, h.At(2, 2)+0.5)
	norm, err = CovarianceDiffNorm(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(norm, 0.5, 1e-12) {
		t.Fatalf("‖G−H‖₂ = %v want 0.5", norm)
	}
}

// PowerIterationSym estimates the dominant absolute eigenvalue of the
// symmetric matrix s by power iteration with the given number of steps.
// It is the independent cross-check of SpectralNormSym. The returned value
// is a lower bound that converges to ‖s‖₂.
func PowerIterationSym(s *Sym, steps int, rng *rand.Rand) float64 {
	n := s.Dim()
	if n == 0 {
		return 0
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	Normalize(v)
	var lambda float64
	for it := 0; it < steps; it++ {
		w := make([]float64, n) // s·v
		for i := range w {
			w[i] = Dot(s.data[i*n:(i+1)*n], v)
		}
		lambda = math.Sqrt(NormSq(w))
		if lambda == 0 {
			return 0
		}
		inv := 1 / lambda
		for i := range w {
			w[i] *= inv
		}
		v = w
	}
	// Rayleigh quotient for the final estimate (captures the sign-free
	// magnitude since we only need |λ| here).
	return math.Abs(s.Quad(v))
}

// IsOrthonormalCols reports whether the columns of m are orthonormal
// within tol.
func IsOrthonormalCols(m *Dense, tol float64) bool {
	c := m.cols
	for i := 0; i < c; i++ {
		for j := i; j < c; j++ {
			var got float64
			for r := 0; r < m.rows; r++ {
				got += m.at(r, i) * m.at(r, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(got-want) > tol {
				return false
			}
		}
	}
	return true
}
