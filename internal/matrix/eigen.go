package matrix

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned when an iterative decomposition fails to
// converge within its iteration budget. This indicates pathological input
// (NaN/Inf entries) rather than an expected runtime condition.
var ErrNoConvergence = errors.New("matrix: iteration did not converge")

// EigSym computes the full eigendecomposition of the symmetric matrix s:
//
//	s = V · diag(vals) · Vᵀ
//
// with eigenvalues sorted in descending order and the columns of V holding
// the corresponding orthonormal eigenvectors. The implementation is the
// classic Householder tridiagonalization followed by the implicitly shifted
// QL iteration (tred2/tql2), which costs O(d³) and is the default fast path
// for the Gram matrices used throughout this repository. See JacobiEigSym
// for the slower rotation-based reference used in tests.
func EigSym(s *Sym) (vals []float64, V *Dense, err error) {
	return EigSymWork(s, nil)
}

// EigSymWork is EigSym with caller-provided scratch: every buffer — the
// returned eigenvalue slice and eigenvector matrix included — lives in ws
// and is valid only until the workspace's next call. A nil ws allocates a
// fresh workspace (exactly EigSym). The hot factorization loops (the FD
// sketch's blocked compress, the site runtimes) pass a per-instance
// workspace so repeated decompositions of a fixed dimension allocate
// nothing.
//
// The reduction runs on the transpose, w[j·n+k] = V(k,j): tred2/tql2's inner
// loops all run down a column of V, which is a contiguous row of w. Loading
// s transposed is required, not cosmetic: a Sym may be asymmetric in the last
// ulp (see SymFromRaw) and tred2 reads the lower triangle only.
//
//distlint:hotpath
func EigSymWork(s *Sym, ws *EigWorkspace) (vals []float64, V *Dense, err error) {
	if ws == nil {
		ws = &EigWorkspace{} //distlint:alloc-ok the nil-workspace convenience path (EigSym); hot callers pass one
	}
	n := s.n
	ws.reserve(n)
	V = ws.v
	d, e, w := ws.d, ws.e, ws.perm.data
	if n == 0 {
		return d, V, nil
	}
	transposeInto(w, s.data, n, n)
	tred2(w, n, d, e)
	if err := tql2(w, n, d, e); err != nil {
		return nil, nil, err
	}
	sortEigDescWork(d, w, V, ws)
	return d, V, nil
}

// tred2 reduces the symmetric matrix V, held transposed in w (its lower
// triangle is read), to tridiagonal form using Householder similarity
// transformations, accumulating the orthogonal transform in w, again
// transposed. On return d holds the diagonal and e the subdiagonal
// (e[0] = 0). The public-domain EISPACK/JAMA routine, operation for
// operation: oracleTred2 in eigen_oracle_test.go is the row-major port it
// replaced, and the two agree bit for bit.
//
//distlint:hotpath
func tred2(w []float64, n int, d, e []float64) {
	d, e = d[:n], e[:n]
	for j := range d {
		d[j] = w[j*n+n-1]
	}

	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		di, ei := d[:i], e[:i]
		wi := w[i*n:][:i] // V(0..i-1, i)
		for _, x := range di {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := range di {
				di[j] = w[j*n+i-1]
				w[j*n+i] = 0
				wi[j] = 0
			}
		} else {
			// Generate the Householder vector.
			for k := range di {
				di[k] /= scale
				h += di[k] * di[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := range ei {
				ei[j] = 0
			}

			// Apply the similarity transformation to remaining columns.
			for j := range di {
				f = di[j]
				wi[j] = f
				wj := w[j*n:][:i] // V(0..i-1, j)
				g = ei[j] + wj[j]*f
				for k := j + 1; k < i; k++ {
					g += wj[k] * di[k]
					ei[k] += wj[k] * f
				}
				ei[j] = g
			}
			f = 0
			for j := range ei {
				ei[j] /= h
				f += ei[j] * di[j]
			}
			hh := f / (h + h)
			for j := range ei {
				ei[j] -= hh * di[j]
			}
			for j := range di {
				f = di[j]
				g = ei[j]
				wj := w[j*n:][:i] // V(0..i-1, j)
				for k := j; k < i; k++ {
					wj[k] += -(f*ei[k] + g*di[k])
				}
				di[j] = wj[i-1]
				w[j*n+i] = 0
			}
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		h := d[i+1]
		di := d[:i+1]
		wi1 := w[(i+1)*n:][:i+1] // V(0..i, i+1)
		if h != 0 {
			for k, x := range wi1 {
				di[k] = x / h
			}
			for j := 0; j <= i; j++ {
				wj := w[j*n:][:i+1] // V(0..i, j)
				g := 0.0
				for k, x := range wi1 {
					g += x * wj[k]
				}
				for k, x := range di {
					wj[k] += -g * x
				}
			}
		}
		for k := range wi1 {
			wi1[k] = 0
		}
	}
	for j := range d {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// tql2 finds the eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix by the implicitly shifted QL method, updating the accumulated
// transform held transposed in w: a plane rotation of columns i and i+1 of
// V is a pass over two adjacent rows of w. The public-domain EISPACK/JAMA
// routine with an iteration cap added; bit-identical to oracleTql2.
//
//distlint:hotpath
func tql2(w []float64, n int, d, e []float64) error {
	d, e = d[:n], e[:n]
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 100
	f, tst1 := 0.0, 0.0
	eps := math.Ldexp(1, -52)
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m == n {
			// Only a NaN tst1 fails the test against e[n-1] = 0.
			return ErrNoConvergence
		}

		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		if m > l {
			for iter := 0; ; iter++ {
				if iter > maxIter {
					return ErrNoConvergence
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				// The implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])

					// Accumulate the transformation.
					wi := w[i*n:][:n]      // V(·, i)
					wi1 := w[(i+1)*n:][:n] // V(·, i+1)
					for k, x := range wi {
						y := wi1[k]
						wi1[k] = s*x + c*y
						wi[k] = c*x - s*y
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// sortEigDesc sorts eigenvalues in descending order, permuting the columns of
// V to match.
func sortEigDesc(d []float64, V *Dense) {
	n := len(d)
	ws := &EigWorkspace{}
	ws.reserveSort(n)
	transposeInto(ws.perm.data, V.data, n, n)
	sortEigDescWork(d, ws.perm.data, V, ws)
}

// sortEigDescWork sorts d descending and writes the matching eigenvectors —
// the rows of w, which holds Vᵀ — into the columns of V in the same order.
//
//distlint:hotpath
func sortEigDescWork(d, w []float64, V *Dense, ws *EigWorkspace) {
	n := len(d)
	idx := ws.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	// Stable insertion sort on the permutation, descending by eigenvalue:
	// the same ordering sort.SliceStable produces (stable sorts agree on
	// their output permutation) without its per-call reflection allocation,
	// which would otherwise be the only allocation left on the blocked
	// ingest paths' steady state. n is at most a few hundred here, so the
	// O(n²) worst case is noise next to the O(n³) decomposition.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[idx[j-1]] < d[idx[j]]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}

	sorted := ws.sorted[:n]
	for newCol, oldCol := range idx {
		sorted[newCol] = d[oldCol]
		for r, x := range w[oldCol*n:][:n] {
			V.data[r*n+newCol] = x
		}
	}
	copy(d, sorted)
}

// TopEigSym returns the k largest eigenvalues of s and their eigenvectors
// (as the first k columns of the returned matrix). k is clamped to [0, d].
func TopEigSym(s *Sym, k int) (vals []float64, V *Dense, err error) {
	vals, V, err = EigSym(s)
	if err != nil {
		return nil, nil, err
	}
	if k < 0 {
		k = 0
	}
	if k > len(vals) {
		k = len(vals)
	}
	top := NewDense(V.rows, k)
	for j := 0; j < k; j++ {
		for i := 0; i < V.rows; i++ {
			top.Set(i, j, V.at(i, j))
		}
	}
	return vals[:k], top, nil
}
