package matrix

import (
	"fmt"
	"math"
)

// Sym is a symmetric d×d matrix stored densely. It is the workhorse
// representation for Gram matrices AᵀA: appending a stream row a to A is the
// rank-1 update G += a·aᵀ, and the right singular vectors and squared
// singular values of A are exactly the eigenpairs of G. The zero value is not
// usable; construct with NewSym.
//
// Its triangles can disagree in the last ulp: AddOuter with w ≠ 1 rounds (i,j)
// and (j,i) apart, as in every ReconstructIntoWork (after a P2 ship or an FD
// shrink). AddBlock overwrites the lower one with the upper.
type Sym struct {
	n    int
	data []float64 // row-major, full storage; see the type comment on symmetry
}

// NewSym returns a d×d symmetric zero matrix.
func NewSym(d int) *Sym {
	if d < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d", d))
	}
	return &Sym{n: d, data: make([]float64, d*d)}
}

// Dim returns d.
func (s *Sym) Dim() int { return s.n }

// At returns element (i,j).
func (s *Sym) At(i, j int) float64 {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, s.n, s.n))
	}
	return s.data[i*s.n+j]
}

// Row returns row i as a read-only view of the matrix storage, for readers
// that walk whole rows (the query encoder): writing through it would break
// the symmetry every other method keeps, and its capacity is clamped so an
// append cannot reach row i+1.
func (s *Sym) Row(i int) []float64 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, s.n))
	}
	return s.data[i*s.n : (i+1)*s.n : (i+1)*s.n]
}

// Set assigns elements (i,j) and (j,i).
func (s *Sym) Set(i, j int, v float64) {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, s.n, s.n))
	}
	s.data[i*s.n+j] = v
	s.data[j*s.n+i] = v
}

// AddOuter performs the rank-1 update s += w·(a aᵀ). Entries (i,j) and
// (j,i) get (w·aᵢ)·aⱼ and (w·aⱼ)·aᵢ, which for w ≠ 1 can round apart.
func (s *Sym) AddOuter(w float64, a []float64) {
	if len(a) != s.n {
		panic(fmt.Sprintf("matrix: outer product of length-%d vector with %d×%d", len(a), s.n, s.n))
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		axpy(w*ai, a, s.data[i*s.n:(i+1)*s.n])
	}
}

// AddSym adds b to s in place.
func (s *Sym) AddSym(b *Sym) {
	if s.n != b.n {
		panic(fmt.Sprintf("matrix: add %d×%d to %d×%d", b.n, b.n, s.n, s.n))
	}
	for i := range s.data {
		s.data[i] += b.data[i]
	}
}

// AddScaledSym adds w·b to s in place.
func (s *Sym) AddScaledSym(w float64, b *Sym) {
	if s.n != b.n {
		panic(fmt.Sprintf("matrix: add scaled %d×%d to %d×%d", b.n, b.n, s.n, s.n))
	}
	for i := range s.data {
		s.data[i] += w * b.data[i]
	}
}

// SubSym subtracts b from s in place.
func (s *Sym) SubSym(b *Sym) {
	if s.n != b.n {
		panic(fmt.Sprintf("matrix: sub %d×%d from %d×%d", b.n, b.n, s.n, s.n))
	}
	for i := range s.data {
		s.data[i] -= b.data[i]
	}
}

// Clone returns a deep copy.
func (s *Sym) Clone() *Sym {
	out := &Sym{n: s.n, data: make([]float64, len(s.data))}
	copy(out.data, s.data)
	return out
}

// Reset zeroes the matrix in place.
func (s *Sym) Reset() {
	for i := range s.data {
		s.data[i] = 0
	}
}

// Trace returns the trace of s. For a Gram matrix AᵀA this is ‖A‖²_F.
func (s *Sym) Trace() float64 {
	var t float64
	for i := 0; i < s.n; i++ {
		t += s.data[i*s.n+i]
	}
	return t
}

// Quad returns the quadratic form xᵀ·s·x. For a Gram matrix AᵀA this is
// ‖Ax‖².
func (s *Sym) Quad(x []float64) float64 {
	if len(x) != s.n {
		panic(fmt.Sprintf("matrix: quadratic form with length-%d vector on %d×%d", len(x), s.n, s.n))
	}
	var q float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := s.data[i*s.n : (i+1)*s.n]
		q += xi * Dot(row, x)
	}
	return q
}

// MulVec returns s·x.
func (s *Sym) MulVec(x []float64) []float64 {
	if len(x) != s.n {
		panic(fmt.Sprintf("matrix: multiply %d×%d by vector of length %d", s.n, s.n, len(x)))
	}
	out := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = Dot(s.data[i*s.n:(i+1)*s.n], x)
	}
	return out
}

// MaxAbs returns the largest absolute entry.
func (s *Sym) MaxAbs() float64 {
	var m float64
	for _, v := range s.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// RawData returns a copy of the full row-major storage, for serialization.
func (s *Sym) RawData() []float64 {
	out := make([]float64, len(s.data))
	copy(out, s.data)
	return out
}

// SymFromRaw adopts RawData output verbatim, never symmetrizing: accumulated
// Syms can be asymmetric in the last ulp (AddOuter computes (w·aᵢ)·aⱼ
// against (w·aⱼ)·aᵢ), and a snapshot round-trip must stay bit-exact.
func SymFromRaw(d int, data []float64) *Sym {
	if len(data) != d*d {
		panic(fmt.Sprintf("matrix: %d values for a %d×%d symmetric matrix", len(data), d, d))
	}
	s := NewSym(d)
	copy(s.data, data)
	return s
}

// Gram returns AᵀA for a row matrix A.
//
//distlint:unreachable-ok test helper: the exact AᵀA the sketch and matrix tests compare against
func Gram(a *Dense) *Sym {
	g := NewSym(a.cols)
	for i := 0; i < a.rows; i++ {
		g.AddOuter(1, a.Row(i))
	}
	return g
}

// Reconstruct returns the symmetric matrix V·diag(vals)·Vᵀ where the columns
// of V are eigenvectors. Only the first len(vals) columns of V are used.
func Reconstruct(v *Dense, vals []float64) *Sym {
	s := NewSym(v.rows)
	ReconstructInto(s, v, vals)
	return s
}

// ReconstructInto overwrites dst with V·diag(vals)·Vᵀ, reusing dst's
// storage; it is Reconstruct for the blocked factorization loops that
// rebuild a Gram of fixed dimension every block. dst must be v.rows ×
// v.rows.
func ReconstructInto(dst *Sym, v *Dense, vals []float64) {
	ReconstructIntoWork(dst, v, vals, make([]float64, v.rows))
}
