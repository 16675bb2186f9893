package matrix

import (
	"math"
)

// SVD computes the thin singular value decomposition
//
//	a = U · diag(sigma) · Vᵀ
//
// of an n×d matrix, with singular values sorted in descending order.
// U is n×r and V is d×r where r = min(n, d). The implementation is the
// Golub–Kahan–Reinsch algorithm: Householder bidiagonalization followed by
// implicitly shifted QR on the bidiagonal form (a port of the public-domain
// EISPACK/Numerical-Recipes routine with explicit epsilon tests). It is
// cross-checked against JacobiSVD in the test suite.
func SVD(a *Dense) (U *Dense, sigma []float64, V *Dense, err error) {
	return SVDWork(a, nil)
}

// SVDWork is SVD with caller-provided scratch: the returned factors alias
// ws and are valid only until the workspace's next call. A nil ws allocates
// a fresh workspace (exactly SVD). Blocked ingestion paths that factorize a
// fixed shape repeatedly pass a per-instance workspace so the loop
// allocates nothing.
func SVDWork(a *Dense, ws *SVDWorkspace) (U *Dense, sigma []float64, V *Dense, err error) {
	if ws == nil {
		ws = &SVDWorkspace{}
	}
	n, d := a.Dims()
	if n == 0 || d == 0 {
		return NewDense(n, 0), nil, NewDense(d, 0), nil
	}
	if n >= d {
		return svdTall(ws.loadU(a), ws)
	}
	// A = (Aᵀ)ᵀ = (U'ΣV'ᵀ)ᵀ = V'ΣU'ᵀ.
	Ut, sigma, Vt, err := svdTall(ws.loadUT(a), ws)
	if err != nil {
		return nil, nil, nil, err
	}
	return Vt, sigma, Ut, nil
}

// SingularValues returns only the singular values of a, sorted descending.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes svd.go with its tests
func SingularValues(a *Dense) ([]float64, error) {
	_, sigma, _, err := SVD(a)
	return sigma, err
}

// svdTall computes the SVD of an m×n matrix with m ≥ n, overwriting u
// (which holds A on entry and U on exit). Scratch vectors and V come from
// the workspace.
func svdTall(u *Dense, ws *SVDWorkspace) (*Dense, []float64, *Dense, error) {
	m, n := u.Dims()
	ws.w = growFloats(ws.w, n)
	ws.rv1 = growFloats(ws.rv1, n)
	ws.v = reuseDense(ws.v, n, n, true)
	w := ws.w
	rv1 := ws.rv1
	v := ws.v

	var c, f, h, s, x, y, z float64
	var g, scale, anorm float64
	var l int

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l = i + 1
		rv1[i] = scale * g
		g, s, scale = 0, 0, 0
		if i < m {
			for k := i; k < m; k++ {
				scale += math.Abs(u.At(k, i))
			}
			if scale != 0 {
				for k := i; k < m; k++ {
					u.Set(k, i, u.At(k, i)/scale)
					s += u.At(k, i) * u.At(k, i)
				}
				f = u.At(i, i)
				g = -withSign(math.Sqrt(s), f)
				h = f*g - s
				u.Set(i, i, f-g)
				for j := l; j < n; j++ {
					s = 0
					for k := i; k < m; k++ {
						s += u.At(k, i) * u.At(k, j)
					}
					f = s / h
					for k := i; k < m; k++ {
						u.Add(k, j, f*u.At(k, i))
					}
				}
				for k := i; k < m; k++ {
					u.Set(k, i, u.At(k, i)*scale)
				}
			}
		}
		w[i] = scale * g

		g, s, scale = 0, 0, 0
		if i < m && i != n-1 {
			for k := l; k < n; k++ {
				scale += math.Abs(u.At(i, k))
			}
			if scale != 0 {
				for k := l; k < n; k++ {
					u.Set(i, k, u.At(i, k)/scale)
					s += u.At(i, k) * u.At(i, k)
				}
				f = u.At(i, l)
				g = -withSign(math.Sqrt(s), f)
				h = f*g - s
				u.Set(i, l, f-g)
				for k := l; k < n; k++ {
					rv1[k] = u.At(i, k) / h
				}
				for j := l; j < m; j++ {
					s = 0
					for k := l; k < n; k++ {
						s += u.At(j, k) * u.At(i, k)
					}
					for k := l; k < n; k++ {
						u.Add(j, k, s*rv1[k])
					}
				}
				for k := l; k < n; k++ {
					u.Set(i, k, u.At(i, k)*scale)
				}
			}
		}
		anorm = math.Max(anorm, math.Abs(w[i])+math.Abs(rv1[i]))
	}

	// Accumulate right-hand transformations.
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			if g != 0 {
				for j := l; j < n; j++ {
					// Double division avoids possible underflow.
					v.Set(j, i, (u.At(i, j)/u.At(i, l))/g)
				}
				for j := l; j < n; j++ {
					s = 0
					for k := l; k < n; k++ {
						s += u.At(i, k) * v.At(k, j)
					}
					for k := l; k < n; k++ {
						v.Add(k, j, s*v.At(k, i))
					}
				}
			}
			for j := l; j < n; j++ {
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		}
		v.Set(i, i, 1)
		g = rv1[i]
		l = i
	}

	// Accumulate left-hand transformations.
	for i := n - 1; i >= 0; i-- {
		l = i + 1
		g = w[i]
		for j := l; j < n; j++ {
			u.Set(i, j, 0)
		}
		if g != 0 {
			g = 1 / g
			for j := l; j < n; j++ {
				s = 0
				for k := l; k < m; k++ {
					s += u.At(k, i) * u.At(k, j)
				}
				f = (s / u.At(i, i)) * g
				for k := i; k < m; k++ {
					u.Add(k, j, f*u.At(k, i))
				}
			}
			for j := i; j < m; j++ {
				u.Set(j, i, u.At(j, i)*g)
			}
		} else {
			for j := i; j < m; j++ {
				u.Set(j, i, 0)
			}
		}
		u.Add(i, i, 1)
	}

	// Diagonalize the bidiagonal form.
	eps := math.Ldexp(1, -52)
	const maxIter = 60
	for k := n - 1; k >= 0; k-- {
		for its := 0; ; its++ {
			if its > maxIter {
				return nil, nil, nil, ErrNoConvergence
			}
			flag := true
			var nm int
			l = k
			for ; l >= 0; l-- {
				nm = l - 1
				if math.Abs(rv1[l]) <= eps*anorm {
					flag = false
					break
				}
				// nm ≥ 0 always reached here because rv1[0] == 0.
				if math.Abs(w[nm]) <= eps*anorm {
					break
				}
			}
			if flag {
				// Cancellation of rv1[l] when w[l-1] is negligible.
				c, s = 0, 1
				for i := l; i <= k; i++ {
					f = s * rv1[i]
					rv1[i] = c * rv1[i]
					if math.Abs(f) <= eps*anorm {
						break
					}
					g = w[i]
					h = math.Hypot(f, g)
					w[i] = h
					h = 1 / h
					c = g * h
					s = -f * h
					for j := 0; j < m; j++ {
						y = u.At(j, nm)
						z = u.At(j, i)
						u.Set(j, nm, y*c+z*s)
						u.Set(j, i, z*c-y*s)
					}
				}
			}
			z = w[k]
			if l == k {
				// Converged; enforce nonnegative singular value.
				if z < 0 {
					w[k] = -z
					for j := 0; j < n; j++ {
						v.Set(j, k, -v.At(j, k))
					}
				}
				break
			}

			// Shift from the bottom 2×2 minor.
			x = w[l]
			nm = k - 1
			y = w[nm]
			g = rv1[nm]
			h = rv1[k]
			f = ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = math.Hypot(f, 1)
			f = ((x-z)*(x+z) + h*((y/(f+withSign(g, f)))-h)) / x

			// Next QR transformation.
			c, s = 1, 1
			for j := l; j <= nm; j++ {
				i := j + 1
				g = rv1[i]
				y = w[i]
				h = s * g
				g = c * g
				z = math.Hypot(f, h)
				rv1[j] = z
				c = f / z
				s = h / z
				f = x*c + g*s
				g = g*c - x*s
				h = y * s
				y = y * c
				for jj := 0; jj < n; jj++ {
					x = v.At(jj, j)
					z = v.At(jj, i)
					v.Set(jj, j, x*c+z*s)
					v.Set(jj, i, z*c-x*s)
				}
				z = math.Hypot(f, h)
				w[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					s = h * z
				}
				f = c*g + s*y
				x = c*y - s*g
				for jj := 0; jj < m; jj++ {
					y = u.At(jj, j)
					z = u.At(jj, i)
					u.Set(jj, j, y*c+z*s)
					u.Set(jj, i, z*c-y*s)
				}
			}
			rv1[l] = 0
			rv1[k] = f
			w[k] = x
		}
	}

	sortSVDDesc(w, u, v)
	return u, w, v, nil
}

// withSign returns |a| with the sign of b (b == 0 counts as positive),
// matching the Fortran SIGN intrinsic used by the reference routine.
func withSign(a, b float64) float64 {
	if b >= 0 {
		return math.Abs(a)
	}
	return -math.Abs(a)
}
