package matrix

import (
	"fmt"
	"slices"
)

// Blocked linear algebra for the batch ingest paths. The tracking protocols
// historically paid one rank-1 AddOuter (O(d²), bounds-checked, one row at a
// time) per stream row; the kernels here restructure that per-record work
// into per-block work: a whole row block B folds into a Gram matrix as the
// rank-k update G += BᵀB, read row-major where the block's rows lie (a Gram
// row's entries are the vector lanes), so nothing is packed first.
//
// The blocked kernels reassociate floating-point additions (each Gram entry
// accumulates the block's contribution before rounding into G), so their
// results can differ from a sequence of AddOuter calls in the last ulp.
// Callers that require bit-identity to row-at-a-time ingestion — the exact
// protocol modes — must keep using AddOuter; the fast ingest modes accept
// the reassociation, which is documented at their call sites.

// NormSqRows computes the squared Euclidean norm of every row into dst,
// reusing dst's backing array when it is large enough, and returns the
// resulting slice. The per-row values are bit-identical to NormSq.
//
//distlint:hotpath
func NormSqRows(rows [][]float64, dst []float64) []float64 {
	dst = growFloats(dst, len(rows))
	normSqRows(rows, dst)
	return dst
}

// addBlockCutoff is the block size below which AddBlock takes rank-1 updates:
// AddOuter rounds each row into the Gram, so moving it changes bits.
const addBlockCutoff = 4

// AddBlock performs the rank-k update s += BᵀB where the rows of B are the
// given slices, all of length Dim, without allocating. The trailing argument
// is ignored: bench/ still passes the packing scratch the update once took.
//
//distlint:hotpath
func (s *Sym) AddBlock(rows [][]float64, _ ...*Dense) {
	for i, row := range rows {
		if len(row) != s.n {
			panic(fmt.Sprintf("matrix: block row %d of length %d, want %d", i, len(row), s.n))
		}
	}
	s.addRowBlock(len(rows), rows, nil)
}

// AddDenseBlock is AddBlock for a Dense row block with Dim columns.
//
//distlint:hotpath
func (s *Sym) AddDenseBlock(b *Dense) {
	if b.cols != s.n {
		panic(fmt.Sprintf("matrix: %d-column block into %d×%d", b.cols, s.n, s.n))
	}
	s.addRowBlock(b.rows, nil, b.data)
}

// blockRow is row i of a block of d-column rows held either as slices (rows
// non-nil) or row-major in flat.
func blockRow(rows [][]float64, flat []float64, d, i int) []float64 {
	if rows != nil {
		return rows[i][:d]
	}
	return flat[i*d : (i+1)*d]
}

// addRowBlock folds an n-row block of checked rows in a blockRow form.
//
//distlint:hotpath
func (s *Sym) addRowBlock(n int, rows [][]float64, flat []float64) {
	d := s.n
	if n < addBlockCutoff {
		for i := 0; i < n; i++ {
			s.AddOuter(1, blockRow(rows, flat, d, i))
		}
		return
	}
	gramUpper(rows, flat, n, d, s.data)
	s.mirrorUpper()
}

// mirrorUpper copies the upper triangle onto the lower in 4×4 transposes,
// so no store walks down a column.
//
//distlint:hotpath
func (s *Sym) mirrorUpper() {
	d, a := s.n, s.data
	i := 0
	for ; i+4 <= d; i += 4 {
		u0, u1, u2, u3 := a[i*d:][:d], a[(i+1)*d:][:d], a[(i+2)*d:][:d], a[(i+3)*d:][:d]
		a[(i+1)*d+i] = u0[i+1]
		a[(i+2)*d+i], a[(i+2)*d+i+1] = u0[i+2], u1[i+2]
		a[(i+3)*d+i], a[(i+3)*d+i+1], a[(i+3)*d+i+2] = u0[i+3], u1[i+3], u2[i+3]
		for k := i + 4; k < d; k++ {
			l := a[k*d+i:][:4]
			l[0], l[1], l[2], l[3] = u0[k], u1[k], u2[k], u3[k]
		}
	}
	for ; i < d; i++ {
		for k := i + 1; k < d; k++ {
			a[k*d+i] = a[i*d+k]
		}
	}
}

// gramRowGo specifies gramUpper's bodies: out[m] += Σᵢ rᵢ[j]·rᵢ[j+m] over
// the n rows (held as blockRow describes), summed as partial sums s0..s3 of
// the rows i ≡ 0…3 (mod 4), the n mod 4 tail rows into s0, then
// out[m] += (s0+s1)+(s2+s3). Assembly bodies produce the same bits.
//
//distlint:hotpath
func gramRowGo(rows [][]float64, flat []float64, n, d, j int, out []float64) {
	for m0 := 0; m0 < len(out); m0 += 8 {
		o := out[m0:min(m0+8, len(out))]
		var s0, s1, s2, s3 [8]float64
		i := 0
		for ; i+4 <= n; i += 4 {
			r0, r1, r2, r3 := blockRow(rows, flat, d, i), blockRow(rows, flat, d, i+1), blockRow(rows, flat, d, i+2), blockRow(rows, flat, d, i+3)
			a0, a1, a2, a3 := r0[j], r1[j], r2[j], r3[j]
			c0, c1, c2, c3 := r0[j+m0:][:len(o)], r1[j+m0:][:len(o)], r2[j+m0:][:len(o)], r3[j+m0:][:len(o)]
			for k := range o {
				s0[k] += float64(a0 * c0[k])
				s1[k] += float64(a1 * c1[k])
				s2[k] += float64(a2 * c2[k])
				s3[k] += float64(a3 * c3[k])
			}
		}
		for ; i < n; i++ {
			r := blockRow(rows, flat, d, i)
			a, c := r[j], r[j+m0:][:len(o)]
			for k := range o {
				s0[k] += float64(a * c[k])
			}
		}
		for k := range o {
			o[k] += (s0[k] + s1[k]) + (s2[k] + s3[k])
		}
	}
}

// GramInto overwrites dst with XᵀX, the Gram of x's rows, through
// AddDenseBlock, and returns it. dst takes x's column count as its
// dimension, reusing its storage when that is large enough; a nil or short
// dst is replaced.
//
//distlint:hotpath
func GramInto(dst *Sym, x *Dense) *Sym {
	n := x.cols
	if dst == nil || cap(dst.data) < n*n {
		dst = NewSym(n) //distlint:alloc-ok first call, or a wider x than any before
	} else {
		dst.n, dst.data = n, dst.data[:n*n]
		dst.Reset()
	}
	dst.AddDenseBlock(x)
	return dst
}

// AppendCombination appends the row Σᵢ c[i]·x.Row(i) to m, one coefficient
// per row of x, summed in row order through the axpy kernel.
func (m *Dense) AppendCombination(x *Dense, c []float64) {
	if len(c) != x.rows || x.cols != m.cols {
		panic(fmt.Sprintf("matrix: combination of %d coefficients over %d×%d into %d columns", len(c), x.rows, x.cols, m.cols))
	}
	n := len(m.data)
	m.data = slices.Grow(m.data, m.cols)[:n+m.cols]
	out := m.data[n:]
	clear(out)
	for i, ci := range c {
		if ci != 0 {
			axpy(ci, x.data[i*x.cols:(i+1)*x.cols], out)
		}
	}
	m.rows++
}
