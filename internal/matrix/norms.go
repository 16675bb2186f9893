package matrix

import "math"

// EigValsSym returns the eigenvalues of the symmetric s, descending: EigSym's,
// or JacobiEigSym's where QL fails a finite matrix (TestJacobiFallbackReachable),
// as the production decompositions fall back. The error is Jacobi's: a
// NaN or ±Inf entry.
func EigValsSym(s *Sym) ([]float64, error) {
	vals, _, err := EigSym(s)
	if err != nil {
		vals, _, err = JacobiEigSym(s)
	}
	return vals, err
}

// SpectralNormSym returns ‖s‖₂, the largest absolute eigenvalue of the
// symmetric matrix s. This is the quantity the paper's matrix error metric
// ‖AᵀA − BᵀB‖₂ / ‖A‖²_F needs, with s the (symmetric) covariance difference.
func SpectralNormSym(s *Sym) (float64, error) {
	vals, err := EigValsSym(s)
	if err != nil {
		return 0, err
	}
	var m float64
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m, nil
}

// CovarianceDiffNorm computes ‖g − h‖₂ for two symmetric matrices of equal
// dimension without mutating either operand.
func CovarianceDiffNorm(g, h *Sym) (float64, error) {
	d := g.Clone()
	d.SubSym(h)
	return SpectralNormSym(d)
}
