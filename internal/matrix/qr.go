package matrix

import (
	"math"
)

// QR holds the Householder QR factorization a = Q·R of an m×n matrix with
// m ≥ n, in the compact form produced by Factor: the upper triangle of qr
// holds R and the lower trapezoid holds the Householder vectors.
type QR struct {
	qr    *Dense
	rdiag []float64
}

// FactorQR computes the QR decomposition of a (m×n, m ≥ n required) by
// Householder reflections.
func FactorQR(a *Dense) *QR {
	return FactorQRWork(a, nil)
}

// FactorQRWork is FactorQR with caller-provided scratch: the returned
// factorization aliases ws and is valid only until the workspace's next
// call. A nil ws allocates a fresh workspace (exactly FactorQR).
func FactorQRWork(a *Dense, ws *QRWorkspace) *QR {
	m, n := a.Dims()
	if m < n {
		panic("matrix: QR requires rows ≥ cols")
	}
	if ws == nil {
		ws = &QRWorkspace{}
	}
	ws.qr = reuseDense(ws.qr, m, n, false)
	copy(ws.qr.data, a.data)
	ws.rdiag = growFloats(ws.rdiag, n)
	qr := ws.qr
	rdiag := ws.rdiag

	for k := 0; k < n; k++ {
		// Compute the 2-norm of the k-th column below the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Add(k, k, 1)
			// Apply the reflector to the remaining columns.
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Add(i, j, s*qr.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag}
}

// R returns the n×n upper-triangular factor.
func (f *QR) R() *Dense {
	_, n := f.qr.Dims()
	r := NewDense(n, n)
	for i := 0; i < n; i++ {
		r.Set(i, i, f.rdiag[i])
		for j := i + 1; j < n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// Q returns the thin m×n orthonormal factor.
func (f *QR) Q() *Dense {
	m, n := f.qr.Dims()
	q := NewDense(m, n)
	for k := n - 1; k >= 0; k-- {
		q.Set(k, k, 1)
		for j := k; j < n; j++ {
			if f.qr.At(k, k) == 0 {
				continue
			}
			var s float64
			for i := k; i < m; i++ {
				s += f.qr.At(i, k) * q.At(i, j)
			}
			s = -s / f.qr.At(k, k)
			for i := k; i < m; i++ {
				q.Add(i, j, s*f.qr.At(i, k))
			}
		}
	}
	return q
}

// FullRank reports whether R has no zero diagonal entries (to within eps).
func (f *QR) FullRank() bool {
	for _, d := range f.rdiag {
		if math.Abs(d) < 1e-14 {
			return false
		}
	}
	return true
}

// Solve finds x minimizing ‖a·x − b‖₂ using the factorization. b must have
// length m; the result has length n.
func (f *QR) Solve(b []float64) []float64 {
	m, n := f.qr.Dims()
	if len(b) != m {
		panic("matrix: QR solve with mismatched rhs length")
	}
	x := make([]float64, m)
	copy(x, b)
	// Apply Householder reflectors: x ← Qᵀ b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * x[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			x[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R·out = x.
	out := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * out[j]
		}
		if f.rdiag[i] == 0 {
			out[i] = 0
			continue
		}
		out[i] = s / f.rdiag[i]
	}
	return out
}

// OrthonormalizeColumns returns a matrix whose columns span the same space as
// the columns of a but are orthonormal (thin Q of the QR factorization).
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes qr.go with its tests
func OrthonormalizeColumns(a *Dense) *Dense {
	return FactorQR(a).Q()
}
