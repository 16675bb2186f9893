package matrix

import "math"

// EigAbove is the ship step's eigensolver: of the symmetric s, only the
// eigenpairs with λ ≥ thresh, eigenvalues descending, and the largest
// eigenvalue below thresh (−Inf when there is none). Row k of vecs is the
// unit eigenvector of vals[k]. Everything returned lives in ws and is valid
// until its next call, as with EigSymWork, and a warm ws allocates nothing.
//
// It is LAPACK dsyevx's plan for a few vectors of a symmetric matrix: the
// Householder reduction of EigSymWork with its reflectors kept and no
// accumulation phase (householder), the tridiagonal split where it
// decouples and the eigenvalues of each block by root-free QL (EISPACK
// tqlrat), the wanted vectors of the tridiagonal by inverse iteration
// (LAPACK dstein), and the reflectors applied to those vectors alone. A
// decomposition that ships nothing pays for the reduction and the
// eigenvalues only. The results agree with EigSymWork's to rounding, not
// bit for bit; FuzzEigAbove is the specification. A non-finite matrix, or
// one whose reduction or iteration fails, returns ErrNoConvergence.
//
//distlint:spec EigSymWork FuzzEigAbove
//distlint:hotpath
func EigAbove(s *Sym, thresh float64, ws *EigWorkspace) (vals []float64, vecs *Dense, below float64, err error) {
	n := s.n
	ws.reserveAbove(n)
	w := ws.perm.data
	transposeInto(w, s.data, n, n)
	householder(w, n, ws.d, ws.e)

	// The tridiagonal, scaled by a power of two, an exact operation, so that
	// its largest entry is below 1 in magnitude: no square tqlrat or the
	// inverse iteration takes can overflow.
	t := ws.tri
	diag, off, lam, e2 := t[:n], t[n:2*n], t[2*n:3*n], t[3*n:4*n]
	big := 0.0
	for i := range diag {
		diag[i] = w[i*n+i]
		big = max(big, math.Abs(diag[i]))
	}
	for i := 1; i < n; i++ {
		off[i-1] = ws.e[i] // off[i] couples i and i+1
		big = max(big, math.Abs(ws.e[i]))
	}
	if !(big <= math.MaxFloat64) {
		return nil, nil, 0, ErrNoConvergence // a NaN or an Inf in the reduction
	}
	exp := 0
	if big > 0 {
		_, exp = math.Frexp(big)
	}
	for i := range diag {
		diag[i] = math.Ldexp(diag[i], -exp)
		lam[i] = diag[i]
	}
	for i := 0; i+1 < n; i++ {
		off[i] = math.Ldexp(off[i], -exp)
		e2[i] = float64(off[i] * off[i])
	}

	// Split T where an off-diagonal entry is negligible, |e| ≤ ulp·‖T‖, as
	// LAPACK's dstebz does: the blocks decouple, tqlrat finds each block's
	// eigenvalues (ascending), and each wanted vector is solved on its own
	// block and is exactly zero off it. want gathers the wanted eigenvalues
	// in descending order, [lo, hi) the block of each.
	want, lo, hi := t[4*n:5*n], ws.blk[:n], ws.blk[n:2*n]
	const ulp = 0x1p-52 // ‖T‖'s largest entry is below 1 after the scaling
	k := 0
	below = math.Inf(-1)
	for b0 := 0; b0 < n; {
		b1 := b0 + 1
		for b1 < n && math.Abs(off[b1-1]) > ulp {
			b1++
		}
		e2[b1-1] = 0
		if err := tqlrat(lam[b0:b1], e2[b0:b1]); err != nil {
			return nil, nil, 0, err
		}
		i := b1 - 1
		for ; i >= b0 && math.Ldexp(lam[i], exp) >= thresh; i-- {
			j := k
			for ; j > 0 && want[j-1] < lam[i]; j-- {
				want[j], lo[j], hi[j] = want[j-1], lo[j-1], hi[j-1]
			}
			want[j], lo[j], hi[j] = lam[i], b0, b1
			k++
		}
		if i >= b0 {
			below = max(below, math.Ldexp(lam[i], exp))
		}
		b0 = b1
	}
	vals = ws.sorted[:k]
	for i := range vals {
		if vals[i] = math.Ldexp(want[i], exp); math.IsInf(vals[i], 0) {
			return nil, nil, 0, ErrNoConvergence
		}
	}
	ws.v = reuseDense(ws.v, k, n, false)
	vecs = ws.v
	if err := stein(diag, off, want[:k], lo, hi, vecs, t[5*n:], ws.idx); err != nil {
		return nil, nil, 0, err
	}

	// Back-transformation: x = H_{n-1}⋯H_1·z for each vector, H_1 first.
	for j := 0; j < k; j++ {
		x := vecs.data[j*n:][:n]
		for i := 1; i < n; i++ {
			h := ws.d[i]
			if h == 0 {
				continue
			}
			u := w[i*n:][:i]
			xi := x[:i]
			var g float64
			for q, uq := range u {
				g += float64(uq * xi[q])
			}
			g /= h
			for q, uq := range u {
				xi[q] -= float64(g * uq)
			}
		}
	}
	return vals, vecs, below, nil
}

// tqlrat overwrites the diagonal d of a symmetric tridiagonal matrix with
// its eigenvalues in ascending order, by the rational QL method, which
// needs no square roots in its inner loop: e2[i] holds the square of the
// entry coupling i and i+1, e2[n-1] = 0, and is destroyed. The public-domain
// EISPACK routine, 0-based, with a guard against the NaN that would walk the
// split search past the end.
//
//distlint:hotpath
func tqlrat(d, e2 []float64) error {
	n := len(d)
	e2 = e2[:n]
	const maxIter = 30
	eps := math.Ldexp(1, -52)
	f, t, b, c := 0.0, 0.0, 0.0, 0.0
	for l := 0; l < n; l++ {
		h := math.Abs(d[l]) + math.Sqrt(e2[l])
		if t <= h {
			t = h
			b = eps * t
			c = float64(b * b)
		}
		// Look for a small squared subdiagonal element; e2[n-1] = 0 stops
		// the search unless c is NaN.
		m := l
		for m < n && e2[m] > c {
			m++
		}
		if m == n {
			return ErrNoConvergence
		}
		for iter := 0; m > l; iter++ {
			if iter == maxIter {
				return ErrNoConvergence
			}
			// Form the shift.
			s := math.Sqrt(e2[l])
			g := d[l]
			p := (d[l+1] - g) / (2 * s)
			r := math.Hypot(p, 1)
			d[l] = s / (p + math.Copysign(r, p))
			h = g - d[l]
			for i := l + 1; i < n; i++ {
				d[i] -= h
			}
			f += h

			// The rational QL transformation.
			g = d[m]
			if g == 0 {
				g = b
			}
			h = g
			s = 0
			for i := m - 1; i >= l; i-- {
				p = float64(g * h)
				r = p + e2[i]
				e2[i+1] = float64(s * r)
				s = e2[i] / r
				d[i+1] = h + float64(s*(h+d[i]))
				g = d[i] - e2[i]/g
				if g == 0 {
					g = b
				}
				h = float64(g*p) / r
			}
			e2[l] = float64(s * g)
			d[l] = h

			// Guard against underflow in the convergence test.
			if h == 0 || math.Abs(e2[l]) <= math.Abs(c/h) {
				break
			}
			e2[l] = float64(h * e2[l])
			if e2[l] == 0 {
				break
			}
		}
		// Insert d[l] + f among the eigenvalues already found.
		p := d[l] + f
		i := l
		for ; i > 0 && p < d[i-1]; i-- {
			d[i] = d[i-1]
		}
		d[i] = p
	}
	return nil
}

// stein writes into row j of z the unit eigenvector, by inverse iteration,
// of the symmetric tridiagonal with diagonal diag and off-diagonal off
// (off[i] couples i and i+1) for its eigenvalue lams[j], which belongs to
// the block [lo[j], hi[j]) EigAbove split off; the vector is zero off its
// block. lams is descending and accurate to rounding. It is LAPACK dstein:
// each vector starts from a fixed pseudo-random one and is solved against
// the pivoted LU of its block's T − λI (lagtf, lagts), orthogonalised after
// every solve, until its growth shows convergence, plus two more solves. It
// differs twice. dstein orthogonalises against the vectors of the same
// cluster only; the shipped set is small, so here every vector is
// orthogonalised against all those before it, and once more at the end. And
// dstein pulls apart shifts closer than 10 ulps of λ; here the rule is
// EISPACK tinvit's, 10 ulps of the block's norm, so that the shifts of a
// cluster at 0 do not stay equal. buf needs 5n floats and piv n ints. A
// vector that has not converged after five solves returns ErrNoConvergence.
//
//distlint:hotpath
func stein(diag, off, lams []float64, lo, hi []int, z *Dense, buf []float64, piv []int) error {
	n := len(diag)
	const (
		maxIts = 5
		extra  = 2
	)
	eps := math.Ldexp(1, -52) // dlamch('P')
	last := buf[4*n : 5*n]    // the last shift taken in each block, by its first index
	for i := range last {
		last[i] = math.Inf(1)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for j, xj := range lams {
		x := z.data[j*n:][:n]
		clear(x)
		b0, b1 := lo[j], hi[j]
		m, xb := b1-b0, x[b0:b1]
		if m == 1 {
			xb[0] = 1
			continue
		}
		d, e := diag[b0:b1], off[b0:b1-1]
		onenrm := 0.0
		for i, v := range d {
			s := math.Abs(v)
			if i > 0 {
				s += math.Abs(e[i-1])
			}
			if i+1 < m {
				s += math.Abs(e[i])
			}
			onenrm = max(onenrm, s)
		}
		if pertol := float64(10 * float64(eps*onenrm)); last[b0]-xj < pertol {
			xj = last[b0] - pertol
		}
		last[b0] = xj
		for i := range xb {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			xb[i] = float64(float64(rng>>11)*0x1p-52) - 1 // uniform on [−1, 1)
		}
		a, b, c, dd := buf[:m], buf[n:n+m-1], buf[2*n:2*n+m-1], buf[3*n:3*n+m]
		copy(a, d)
		copy(b, e)
		copy(c, e)
		lagtf(a, b, c, dd, piv, xj)
		dtpcrt := math.Sqrt(0.1 / float64(m))
		tol, conv, xmax := 0.0, 0, maxAbs(xb)
		for its := 0; ; its++ {
			if its == maxIts || !(xmax > 0) {
				return ErrNoConvergence
			}
			scl := float64(m) * onenrm * max(eps, math.Abs(a[m-1])) / xmax
			for i := range xb {
				xb[i] *= scl
			}
			tol = lagts(a, b, c, dd, piv, xb, tol)
			orthogonalize(x, z.data[:j*n])
			if xmax = maxAbs(xb); xmax < dtpcrt {
				continue
			}
			if conv++; conv > extra {
				break
			}
		}
		// In a cluster the solve grows x mostly along the vectors already
		// found, so one pass leaves the rest with their rounding: a second
		// pass restores orthogonality ("twice is enough").
		orthogonalize(x, z.data[:j*n])
		// Normalise, dividing by the entry of largest magnitude first so
		// that the sum of squares cannot overflow; that entry ends positive.
		imax := b0
		for i, v := range xb {
			if math.Abs(v) > math.Abs(x[imax]) {
				imax = b0 + i
			}
		}
		scl := 1 / x[imax]
		var nrm float64
		for i := range xb {
			xb[i] *= scl
			nrm += float64(xb[i] * xb[i])
		}
		if !(nrm >= 0.5) {
			return ErrNoConvergence // NaN: x held an Inf, or was 0
		}
		scl = 1 / math.Sqrt(nrm)
		for i := range xb {
			xb[i] *= scl
		}
	}
	return nil
}

// orthogonalize removes from x its components along the unit vectors held
// one after another in zs, by modified Gram–Schmidt.
//
//distlint:hotpath
func orthogonalize(x, zs []float64) {
	n := len(x)
	for ; n > 0 && len(zs) >= n; zs = zs[n:] {
		zp := zs[:n]
		var g float64
		for i, v := range x {
			g += float64(v * zp[i])
		}
		for i, v := range zp {
			x[i] -= float64(g * v)
		}
	}
}

// lagtf factorises T − λI, T tridiagonal with diagonal a, superdiagonal b
// and subdiagonal c (n, n−1 and n−1 entries), as P·L·U with partial
// pivoting, in place: U's diagonal in a, its two superdiagonals in b and d,
// L's multipliers in c, and in[k] = 1 where rows k and k+1 were swapped.
// LAPACK dlagtf with tol = 0, less the singularity report dstein ignores.
//
//distlint:hotpath
func lagtf(a, b, c, d []float64, in []int, lambda float64) {
	n := len(a)
	a[0] -= lambda
	if n == 1 {
		return
	}
	scale1 := math.Abs(a[0]) + math.Abs(b[0])
	for k := 0; k < n-1; k++ {
		a[k+1] -= lambda
		scale2 := math.Abs(c[k]) + math.Abs(a[k+1])
		if k < n-2 {
			scale2 += math.Abs(b[k+1])
		}
		piv1 := 0.0
		if a[k] != 0 {
			piv1 = math.Abs(a[k]) / scale1
		}
		switch {
		case c[k] == 0:
			in[k] = 0
			scale1 = scale2
			if k < n-2 {
				d[k] = 0
			}
		case math.Abs(c[k])/scale2 <= piv1:
			in[k] = 0
			scale1 = scale2
			c[k] /= a[k]
			a[k+1] -= float64(c[k] * b[k])
			if k < n-2 {
				d[k] = 0
			}
		default:
			in[k] = 1
			mult := a[k] / c[k]
			a[k] = c[k]
			temp := a[k+1]
			a[k+1] = b[k] - float64(mult*temp)
			if k < n-2 {
				d[k] = b[k+1]
				b[k+1] = -float64(mult * d[k])
			}
			b[k] = temp
			c[k] = mult
		}
	}
}

// lagts solves (T − λI)·x = y in place from lagtf's factors, perturbing a
// pivot that is zero or too small to divide by without overflow: LAPACK
// dlagts with job = −1. tol is the perturbation; a tol ≤ 0 is replaced by
// eps times the largest factor entry, and the tol used is returned for the
// next solve against the same factors.
//
//distlint:hotpath
func lagts(a, b, c, d []float64, in []int, y []float64, tol float64) float64 {
	n := len(a)
	eps := math.Ldexp(1, -53) // dlamch('E')
	if tol <= 0 {
		tol = maxAbs(a)
		if n > 1 {
			tol = max(tol, maxAbs(b[:n-1]))
		}
		if n > 2 {
			tol = max(tol, maxAbs(d[:n-2]))
		}
		tol *= eps
		if tol == 0 {
			tol = eps
		}
	}
	const sfmin = 0x1p-1022 // dlamch('S'): 1/sfmin does not overflow
	const bignum = 1 / sfmin
	for k := 1; k < n; k++ {
		if in[k-1] == 0 {
			y[k] -= float64(c[k-1] * y[k-1])
		} else {
			temp := y[k-1]
			y[k-1] = y[k]
			y[k] = temp - float64(c[k-1]*y[k])
		}
	}
	for k := n - 1; k >= 0; k-- {
		temp := y[k]
		if k+1 < n {
			temp -= float64(b[k] * y[k+1])
		}
		if k+2 < n {
			temp -= float64(d[k] * y[k+2])
		}
		ak := a[k]
		pert := math.Copysign(tol, ak)
		for {
			absak := math.Abs(ak)
			if absak < 1 {
				if absak < sfmin {
					if absak == 0 || math.Abs(temp)*sfmin > absak {
						ak += pert
						pert *= 2
						continue
					}
					temp *= bignum
					ak *= bignum
				} else if math.Abs(temp) > absak*bignum {
					ak += pert
					pert *= 2
					continue
				}
			}
			break
		}
		y[k] = temp / ak
	}
	return tol
}

// maxAbs returns the largest magnitude in v, 0 for an empty v; a NaN
// propagates.
func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); !(a <= m) {
			m = a
		}
	}
	return m
}
