package matrix

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky for inputs that are not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// Cholesky computes the lower-triangular factor L with s = L·Lᵀ for a
// symmetric positive definite matrix. It rounds out the decomposition
// toolkit: tests use it to fabricate covariance structures, and it provides
// an O(d³/3) PSD check that is cheaper than a full eigendecomposition.
func Cholesky(s *Sym) (*Dense, error) {
	n := s.Dim()
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		for k := 0; k < j; k++ {
			v := l.at(j, k)
			diag += v * v
		}
		diag = s.At(j, j) - diag
		if diag <= 0 || math.IsNaN(diag) {
			return nil, ErrNotPositiveDefinite
		}
		d := math.Sqrt(diag)
		l.set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			var sum float64
			for k := 0; k < j; k++ {
				sum += l.at(i, k) * l.at(j, k)
			}
			l.set(i, j, (s.At(i, j)-sum)*inv)
		}
	}
	return l, nil
}

// SolveCholesky solves s·x = b given the factor L from Cholesky, by the
// usual forward/back substitution pair.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes cholesky.go with its tests
func SolveCholesky(l *Dense, b []float64) []float64 {
	n := l.Rows()
	if len(b) != n {
		panic("matrix: SolveCholesky with mismatched rhs length")
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.at(i, k) * y[k]
		}
		y[i] = sum / l.at(i, i)
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.at(k, i) * x[k]
		}
		x[i] = sum / l.at(i, i)
	}
	return x
}

// IsPositiveDefinite reports whether s is numerically SPD.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes cholesky.go with its tests
func IsPositiveDefinite(s *Sym) bool {
	_, err := Cholesky(s)
	return err == nil
}
