package matrix

import "fmt"

// Blocked linear algebra for the batch ingest paths. The tracking protocols
// historically paid one rank-1 AddOuter (O(d²), bounds-checked, one row at a
// time) per stream row; the kernels here restructure that per-record work
// into per-block work: a whole row block B folds into a Gram matrix as the
// rank-k update G += BᵀB, computed column-major over caller-provided packing
// scratch so the inner loops are contiguous dot products.
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
	for i, row := range rows {
		dst[i] = NormSq(row)
	}
	return dst
}

// addBlockCutoff is the block size below which AddBlock falls back to plain
// rank-1 updates: packing a one- or two-row block costs more than it saves.
const addBlockCutoff = 4

// AddBlock performs the rank-k update s += BᵀB where the rows of B are the
// given slices, all of length Dim. scratch holds the column-major packing of
// the block and is resized (reusing its backing array) as needed; passing
// the same scratch across calls makes the steady-state update allocation-
// free. A nil scratch falls back to the rank-1 loop.
//
// Entries are accumulated block-at-a-time (see the package comment on
// reassociation); the result is made exactly symmetric.
//
//distlint:hotpath
func (s *Sym) AddBlock(rows [][]float64, scratch *Dense) {
	for i, row := range rows {
		if len(row) != s.n {
			panic(fmt.Sprintf("matrix: block row %d of length %d, want %d", i, len(row), s.n))
		}
	}
	s.addRowBlock(len(rows), rows, nil, scratch)
}

// AddDenseBlock is AddBlock for a Dense row block (rows lo ≤ i < hi come
// from callers slicing with RowsView). b must have Dim columns.
//
//distlint:hotpath
func (s *Sym) AddDenseBlock(b *Dense, scratch *Dense) {
	if b.cols != s.n {
		panic(fmt.Sprintf("matrix: %d-column block into %d×%d", b.cols, s.n, s.n))
	}
	s.addRowBlock(b.rows, nil, b.data, scratch)
}

// blockRow is row i of a block of d-column rows held either as slices (rows
// non-nil) or row-major in flat.
func blockRow(rows [][]float64, flat []float64, d, i int) []float64 {
	if rows != nil {
		return rows[i][:d]
	}
	return flat[i*d : (i+1)*d]
}

// addRowBlock is the body of AddBlock and AddDenseBlock over an n-row block
// in either of blockRow's forms: short blocks and a nil scratch take the
// rank-1 loop; otherwise B is packed column-major (scratch row j is column j
// of B, so every Gram entry is one contiguous dot product of length n), the
// upper triangle of BᵀB is added a Gram row at a time, and the result is
// mirrored onto the lower so s stays exactly symmetric.
//
//distlint:hotpath
func (s *Sym) addRowBlock(n int, rows [][]float64, flat []float64, scratch *Dense) {
	d := s.n
	if n < addBlockCutoff || scratch == nil {
		for i := 0; i < n; i++ {
			s.AddOuter(1, blockRow(rows, flat, d, i))
		}
		return
	}
	*scratch = *reuseDense(scratch, d, n, false)
	packed := scratch.data
	packColumns(packed, n, d, rows, flat)
	for j := 0; j < d; j++ {
		gramRow(packed[j*n:(j+1)*n], packed[j*n:], n, s.data[j*d+j:(j+1)*d])
	}
	for j := 0; j < d; j++ {
		for k := j + 1; k < d; k++ {
			s.data[k*d+j] = s.data[j*d+k]
		}
	}
}

// packColumns writes the n-row block column-major into packed (column j at
// packed[j·n:(j+1)·n]), eight rows at a time so that each run of stores fills
// one cache line of a packed column: a row at a time the stores stride by n,
// which at n = 256 lands every column in the same two L1 sets. The last tile
// of a block that is not a multiple of eight rows backs up over rows already
// packed.
//
//distlint:hotpath
func packColumns(packed []float64, n, d int, rows [][]float64, flat []float64) {
	if n < 8 {
		for i := 0; i < n; i++ {
			for j, v := range blockRow(rows, flat, d, i) {
				packed[j*n+i] = v
			}
		}
		return
	}
	for i := 0; i < n; i += 8 {
		i = min(i, n-8)
		r0, r1, r2, r3 := blockRow(rows, flat, d, i), blockRow(rows, flat, d, i+1), blockRow(rows, flat, d, i+2), blockRow(rows, flat, d, i+3)
		r4, r5, r6, r7 := blockRow(rows, flat, d, i+4), blockRow(rows, flat, d, i+5), blockRow(rows, flat, d, i+6), blockRow(rows, flat, d, i+7)
		for j := 0; j < d; j++ {
			p := packed[j*n+i : j*n+i+8]
			p[0], p[1], p[2], p[3] = r0[j], r1[j], r2[j], r3[j]
			p[4], p[5], p[6], p[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
}

// gramRowGo is the portable body of gramRow and the specification of every
// other: out[m] += dotUnrolled(cj, column m of cols) for each m, where the
// columns are n long and contiguous in cols. An assembly body must produce
// the same bits (see CONTRIBUTING.md, "Kernels").
//
//distlint:hotpath
func gramRowGo(cj, cols []float64, n int, out []float64) {
	cj = cj[:n]
	for m := range out {
		out[m] += dotUnrolled(cj, cols[m*n:(m+1)*n])
	}
}

// dotUnrolled is Dot for equal-length slices with four independent
// accumulators, trading the sequential rounding order for instruction-level
// parallelism in the blocked kernels' inner loop.
//
//distlint:hotpath
func dotUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// RowsView returns rows [lo, hi) of m as a Dense view aliasing m's storage:
// the row-block window the blocked ingest paths hand to AddDenseBlock
// without copying. Mutating the view mutates m; AppendRow on m may
// reallocate and detach existing views.
func (m *Dense) RowsView(lo, hi int) *Dense {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("matrix: rows view [%d,%d) of %d×%d", lo, hi, m.rows, m.cols))
	}
	return &Dense{rows: hi - lo, cols: m.cols, data: m.data[lo*m.cols : hi*m.cols]}
}

// ReconstructIntoWork is ReconstructInto with caller-provided column
// scratch (length ≥ v.rows), so the per-block factorization loops rebuild
// their Gram without allocating.
//
//distlint:hotpath
func ReconstructIntoWork(dst *Sym, v *Dense, vals, col []float64) {
	if len(vals) > v.cols {
		panic(fmt.Sprintf("matrix: %d eigenvalues for %d eigenvectors", len(vals), v.cols))
	}
	if dst.n != v.rows {
		panic(fmt.Sprintf("matrix: reconstruct %d-dim eigenvectors into %d×%d", v.rows, dst.n, dst.n))
	}
	if len(col) < v.rows {
		panic(fmt.Sprintf("matrix: reconstruct scratch of length %d, want ≥ %d", len(col), v.rows))
	}
	col = col[:v.rows]
	dst.Reset()
	for k, lam := range vals {
		if lam == 0 {
			continue
		}
		for i := range col {
			col[i] = v.data[i*v.cols+k]
		}
		dst.AddOuter(lam, col)
	}
}
