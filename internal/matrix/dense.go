// Package matrix is the dense linear algebra the distributed matrix
// tracking protocols run on: a row-major dense matrix, a symmetric d×d
// matrix for Gram matrices AᵀA, and the one factorisation the protocols
// need — the symmetric eigendecomposition of a Gram (EigSym, EigSymWork:
// Householder tridiagonalisation and implicit QL, with cyclic Jacobi as
// the fallback when QL does not converge). Its eigenpairs are the right
// singular vectors and squared singular values of A: Algorithm 5.3's site
// step and the P1, P2small and FD shrinks all factor A this way.
//
// The O(d²) and O(d³) loops of that path — the blocked Gram update, row
// norms, the rank-1 update, tql2's plane rotation and tred2's similarity
// update — have AVX2 bodies on amd64, each bit-identical to a portable Go
// spec and chosen once by CPUID; the purego build tag keeps the portable
// bodies. The workspace-taking variants let the blocked ingest paths run
// without allocating.
//
// No program reaches svd.go, qr.go or cholesky.go (Golub–Kahan and
// one-sided Jacobi SVD, Householder QR, Cholesky); ROADMAP item 10 deletes
// them with their tests.
//
// Everything is built on the standard library only.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix. The zero value is an empty 0×0 matrix
// ready to accept AppendRow.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r×c matrix of zeros.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}

// at, set and add are the unchecked accessors used by the O(d³) inner loops
// of the decomposition routines in this package, where the indices are
// loop-bounded by construction.
func (m *Dense) at(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *Dense) set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *Dense) add(i, j int, v float64) { m.data[i*m.cols+j] += v }

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowCopy returns a copy of row i.
func (m *Dense) RowCopy(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.Row(i))
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// AppendRow appends a copy of row to the matrix. On an empty matrix it fixes
// the column count to len(row).
func (m *Dense) AppendRow(row []float64) {
	if m.rows == 0 && m.cols == 0 {
		m.cols = len(row)
	}
	if len(row) != m.cols {
		panic(fmt.Sprintf("matrix: append row of length %d to %d-column matrix", len(row), m.cols))
	}
	m.data = append(m.data, row...)
	m.rows++
}

// CopyFrom overwrites m with the contents of b. Dimensions must match.
func (m *Dense) CopyFrom(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: copy %d×%d into %d×%d", b.rows, b.cols, m.rows, m.cols))
	}
	copy(m.data, b.data)
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := &Dense{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Reset truncates the matrix to 0 rows, keeping the column count and
// retaining capacity.
func (m *Dense) Reset() {
	m.rows = 0
	m.data = m.data[:0]
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddMat adds b to m in place. Dimensions must match.
func (m *Dense) AddMat(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: add %d×%d to %d×%d", b.rows, b.cols, m.rows, m.cols))
	}
	for i := range m.data {
		m.data[i] += b.data[i]
	}
}

// SubMat subtracts b from m in place. Dimensions must match.
func (m *Dense) SubMat(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("matrix: sub %d×%d from %d×%d", b.rows, b.cols, m.rows, m.cols))
	}
	for i := range m.data {
		m.data[i] -= b.data[i]
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: multiply %d×%d by %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: multiply %d×%d by vector of length %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], x)
	}
	return out
}

// VecMul returns the vector-matrix product xᵀ·m as a slice of length Cols.
func (m *Dense) VecMul(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("matrix: multiply vector of length %d by %d×%d", len(x), m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// FrobeniusSq returns the squared Frobenius norm ‖m‖²_F.
func (m *Dense) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// MaxAbs returns the largest absolute entry (the max norm).
func (m *Dense) MaxAbs() float64 {
	var s float64
	for _, v := range m.data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Equal reports whether m and b have the same shape and entries within tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense %d×%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&sb, "% 10.4g ", m.data[i*m.cols+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: dot of vectors with lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// NormSq returns the squared Euclidean norm of v.
func NormSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Normalize scales v to unit Euclidean norm in place and returns its original
// norm. A zero vector is left unchanged and 0 is returned.
//
//distlint:unreachable-ok test helper: random unit directions for the core, sketch and matrix tests
func Normalize(v []float64) float64 {
	n := math.Sqrt(NormSq(v))
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// ErrDimension is returned by operations whose input shapes are incompatible
// in contexts where a panic would be inappropriate (e.g. user-supplied data).
var ErrDimension = errors.New("matrix: dimension mismatch")
