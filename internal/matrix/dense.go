// Package matrix is the dense linear algebra the distributed matrix
// tracking protocols run on: a row-major dense matrix, a symmetric d×d
// matrix for Gram matrices AᵀA, and the one factorisation the protocols
// need — the symmetric eigendecomposition of a Gram (EigSym, EigSymWork:
// Householder tridiagonalisation and implicit QL, with cyclic Jacobi as
// the fallback when QL fails: on NaN/Inf entries, or on a finite Gram
// large enough to overflow inside the reduction, which Jacobi still
// decomposes — TestJacobiFallbackReachable). Its eigenpairs are the right
// singular vectors and squared singular values of A: Algorithm 5.3's site
// step factors A this way, and the FD shrink (P1, P2small, the FD
// baseline) factors the smaller of AᵀA and AAᵀ, whose eigenvectors uᵢ give
// the rows uᵢᵀA.
//
// The O(d²) and O(d³) loops of that path — the blocked Gram update, row
// norms, the rank-1 update, tql2's plane rotation and tred2's similarity
// update — have AVX2 bodies on amd64, each bit-identical to a portable Go
// spec and chosen once by CPUID; the purego build tag keeps the portable
// bodies. The workspace-taking variants let the blocked ingest paths run
// without allocating.
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

// TransposeInto overwrites dst with xᵀ and returns it, reusing dst's
// storage when it is large enough; a nil or short dst is replaced.
func TransposeInto(dst, x *Dense) *Dense {
	dst = reuseDense(dst, x.cols, x.rows, false)
	transposeInto(dst.data, x.data, x.rows, x.cols)
	return dst
}

// Reset truncates the matrix to 0 rows, keeping the column count and
// retaining capacity.
func (m *Dense) Reset() {
	m.rows = 0
	m.data = m.data[:0]
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
		s += float64(v * b[i])
	}
	return s
}

// NormSq returns the squared Euclidean norm of v.
func NormSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
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
