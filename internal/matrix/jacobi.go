package matrix

import (
	"math"
)

// JacobiEigSym computes the eigendecomposition of the symmetric matrix s via
// the cyclic Jacobi rotation method: s = V·diag(vals)·Vᵀ with eigenvalues
// sorted descending. It is slower than EigSym (more O(d³) sweeps) but is
// unconditionally convergent and serves as the independent reference
// implementation in cross-checking tests.
func JacobiEigSym(s *Sym) (vals []float64, V *Dense, err error) {
	n := s.n
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

// JacobiSVD computes the thin singular value decomposition of a (n×d) by the
// one-sided Jacobi method: a = U·diag(sigma)·Vᵀ with singular values sorted
// descending. U is n×r and V is d×r with r = min(n, d). One-sided Jacobi is
// the reference SVD used to validate the Golub–Reinsch implementation; it is
// also the most accurate for small matrices since it never forms AᵀA.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes it with svd.go and their tests
func JacobiSVD(a *Dense) (U *Dense, sigma []float64, V *Dense, err error) {
	n, d := a.Dims()
	if n >= d {
		return jacobiSVDTall(a)
	}
	// For wide matrices decompose the transpose and swap factors:
	// Aᵀ = U'ΣV'ᵀ  ⇒  A = V'ΣU'ᵀ.
	Ut, sigma, Vt, err := jacobiSVDTall(a.T())
	if err != nil {
		return nil, nil, nil, err
	}
	return Vt, sigma, Ut, nil
}

// jacobiSVDTall handles the n ≥ d case by orthogonalizing the columns of a
// working copy of A with Jacobi rotations applied on the right, accumulating
// the rotations in V. At convergence the k-th working column equals σ_k·u_k.
func jacobiSVDTall(a *Dense) (U *Dense, sigma []float64, V *Dense, err error) {
	n, d := a.Dims()
	w := a.Clone()
	V = Identity(d)

	const maxSweeps = 60
	tol := 1e-14
	for sweep := 0; ; sweep++ {
		if sweep >= maxSweeps {
			return nil, nil, nil, ErrNoConvergence
		}
		rotated := false
		for p := 0; p < d-1; p++ {
			for q := p + 1; q < d; q++ {
				// Column inner products.
				var app, aqq, apq float64
				for i := 0; i < n; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					app += wp * wp
					aqq += wq * wq
					apq += wp * wq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				rotated = true
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				// Rotate columns p and q of w and of V.
				for i := 0; i < n; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-sn*wq)
					w.Set(i, q, sn*wp+c*wq)
				}
				for i := 0; i < d; i++ {
					vp := V.At(i, p)
					vq := V.At(i, q)
					V.Set(i, p, c*vp-sn*vq)
					V.Set(i, q, sn*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Extract singular values and left vectors.
	sigma = make([]float64, d)
	U = NewDense(n, d)
	for j := 0; j < d; j++ {
		var norm float64
		for i := 0; i < n; i++ {
			norm += w.At(i, j) * w.At(i, j)
		}
		norm = math.Sqrt(norm)
		sigma[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < n; i++ {
				U.Set(i, j, w.At(i, j)*inv)
			}
		}
	}
	sortSVDDesc(sigma, U, V)
	return U, sigma, V, nil
}

// sortSVDDesc sorts singular values descending, permuting the columns of U
// and V consistently. Either factor may be nil.
func sortSVDDesc(sigma []float64, U, V *Dense) {
	d := len(sigma)
	for i := 0; i < d-1; i++ {
		k := i
		for j := i + 1; j < d; j++ {
			if sigma[j] > sigma[k] {
				k = j
			}
		}
		if k != i {
			sigma[i], sigma[k] = sigma[k], sigma[i]
			if U != nil {
				swapCols(U, i, k)
			}
			if V != nil {
				swapCols(V, i, k)
			}
		}
	}
}

func swapCols(m *Dense, a, b int) {
	for r := 0; r < m.rows; r++ {
		va := m.At(r, a)
		m.Set(r, a, m.At(r, b))
		m.Set(r, b, va)
	}
}
