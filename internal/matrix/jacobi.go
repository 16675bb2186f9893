package matrix

import (
	"math"
)

// JacobiEigSym computes the eigendecomposition of the symmetric matrix s via
// the cyclic Jacobi rotation method: s = V·diag(vals)·Vᵀ with eigenvalues
// sorted descending. It is slower than EigSym (more O(d³) sweeps) but is
// unconditionally convergent and serves as the independent reference
// implementation in cross-checking tests. A NaN or ±Inf entry returns
// ErrNoConvergence: its stop test would otherwise pass on an Inf MaxAbs and
// report the diagonal as converged.
func JacobiEigSym(s *Sym) (vals []float64, V *Dense, err error) {
	n := s.n
	for _, x := range s.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, ErrNoConvergence
		}
	}
	a := s.Clone()
	V = Identity(n)
	if n <= 1 {
		vals = make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = a.At(i, i)
		}
		return vals, V, nil
	}

	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off <= 1e-14*(1+a.MaxAbs())*float64(n) {
			break
		}
		if sweep == maxSweeps-1 {
			return nil, nil, ErrNoConvergence
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				// Rotation annihilating a[p][q].
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if math.IsNaN(t) || math.IsInf(theta, 0) {
					t = 1 / (2 * theta)
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c

				applyJacobiRotation(a, V, p, q, c, sn)
			}
		}
	}

	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	sortEigDesc(vals, V)
	return vals, V, nil
}

// applyJacobiRotation applies the two-sided rotation J(p,q,θ)ᵀ·a·J(p,q,θ)
// with cos/sin (c, sn), and accumulates J into V on the right.
func applyJacobiRotation(a *Sym, V *Dense, p, q int, c, sn float64) {
	n := a.n
	app := a.At(p, p)
	aqq := a.At(q, q)
	apq := a.At(p, q)

	a.Set(p, p, c*c*app-2*sn*c*apq+sn*sn*aqq)
	a.Set(q, q, sn*sn*app+2*sn*c*apq+c*c*aqq)
	a.Set(p, q, 0)

	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		akp := a.At(k, p)
		akq := a.At(k, q)
		a.Set(k, p, c*akp-sn*akq)
		a.Set(k, q, sn*akp+c*akq)
	}
	for k := 0; k < n; k++ {
		vkp := V.At(k, p)
		vkq := V.At(k, q)
		V.Set(k, p, c*vkp-sn*vkq)
		V.Set(k, q, sn*vkp+c*vkq)
	}
}

func offDiagNorm(a *Sym) float64 {
	var s float64
	n := a.n
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			v := a.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}
