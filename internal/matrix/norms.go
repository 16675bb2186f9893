package matrix

import "math"

// SpectralNormSym returns ‖s‖₂, the largest absolute eigenvalue of the
// symmetric matrix s. This is the quantity the paper's matrix error metric
// ‖AᵀA − BᵀB‖₂ / ‖A‖²_F needs, with s the (symmetric) covariance difference.
func SpectralNormSym(s *Sym) (float64, error) {
	vals, _, err := EigSym(s)
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
