package sketch

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// FD is Liberty's Frequent Directions sketch (SIGKDD 2013), the matrix
// analogue of Misra–Gries: it maintains a sketch B with at most ℓ rows of a
// row-stream matrix A such that, for every unit vector x,
//
//	0 ≤ ‖Ax‖² − ‖Bx‖² ≤ Deducted() ≤ ‖A‖²_F / (ℓ+1)
//
// (the Ghashami–Phillips shrink rule used here subtracts the (ℓ+1)-th
// largest squared singular value whenever the rank exceeds ℓ, which gives
// the 1/(ℓ+1) bound; Liberty's original analysis gives 2/ℓ).
//
// The sketch is stored in its exact factored form: the eigenpairs (vals,
// vecs) of BᵀB, so B = diag(√vals)·vecsᵀ. Incoming rows are buffered and
// folded in with one O(d³) eigendecomposition per block of 2ℓ rows, the
// blocked variant the FD paper (and Section 5.2 of the tracking paper)
// describes: appending is an O(d) copy, the factorization amortizes to
// O(dℓ) work per row, and the decomposition scratch is reused across
// blocks, so the steady-state append path allocates nothing. AppendRows
// ingests whole batches and is exactly equivalent to appending its rows
// one at a time (same buffer, same compression schedule, bit-identical
// state); NewFDBuffered exposes the block size, with block 1 reproducing
// the unblocked one-factorization-per-row baseline the benchmarks compare
// against.
//
// When ℓ ≥ d the sketch can never overflow (rank(B) ≤ d ≤ ℓ), so it runs in
// an exact mode that accumulates the Gram matrix directly with zero error
// and no factorizations; this is the regime protocol P1 enters at small ε.
//
// FD sketches are mergeable: Merge(other) never increases the summed error
// bound (Agarwal et al., PODS 2012).
type FD struct {
	ell int // sketch size: max rows of the materialized B
	d   int // row dimension

	// Exact mode (ℓ ≥ d): the Gram matrix alone carries the sketch.
	exact bool
	gram  *matrix.Sym

	// Sketch mode (ℓ < d): eigenpairs of BᵀB plus a row buffer. vecs is a
	// d×d matrix of which only the first len(vals) columns are meaningful.
	vals []float64
	vecs *matrix.Dense
	buf  *matrix.Dense // raw buffered rows not yet folded in

	bufCap   int
	appended int     // rows appended since Reset (bounds rank)
	total    float64 // ‖A‖²_F of everything processed
	deducted float64 // cumulative shrink deduction: the error witness
	shrinks  int64   // number of shrink deductions applied

	// Reusable per-sketch factorization scratch (lazily allocated).
	scratch *matrix.Sym
	eigWS   *matrix.EigWorkspace
	col     []float64 // eigenvector column staging for reconstructions
}

// NewFD returns a Frequent Directions sketch with ℓ rows for d-dimensional
// inputs, using the default 2ℓ-row ingest buffer. ℓ ≥ 1; ℓ ≥ d makes the
// sketch exact (zero covariance error).
func NewFD(ell, d int) *FD {
	block := 2 * ell
	if block < 8 {
		block = 8
	}
	return NewFDBuffered(ell, d, block)
}

// NewFDBuffered returns an FD sketch whose ingest buffer holds block rows:
// one factorize-and-shrink pass runs per block, so larger blocks amortize
// the O(d³) decomposition over more rows at the cost of a block×d row
// buffer. block ≥ 1; block 1 is the unblocked row-at-a-time baseline (one
// factorization per row once the sketch saturates). The block size changes
// the shrink schedule — and therefore the exact sketch values — but never
// the Deducted() ≤ ‖A‖²_F/(ℓ+1) guarantee.
func NewFDBuffered(ell, d, block int) *FD {
	if ell < 1 || d < 1 {
		panic(fmt.Sprintf("sketch: FD needs ℓ,d ≥ 1, got %d,%d", ell, d))
	}
	if block < 1 {
		panic(fmt.Sprintf("sketch: FD needs block ≥ 1, got %d", block))
	}
	f := &FD{ell: ell, d: d, bufCap: block}
	if ell >= d {
		f.exact = true
		f.gram = matrix.NewSym(d)
		return f
	}
	f.vecs = matrix.NewDense(d, d)
	f.buf = matrix.NewDense(0, d)
	return f
}

// Dim returns the row dimension d.
func (f *FD) Dim() int { return f.d }

// Append processes one row of the stream.
//
//distlint:hotpath
func (f *FD) Append(row []float64) {
	if len(row) != f.d {
		panic(fmt.Sprintf("sketch: FD append row of length %d, want %d", len(row), f.d))
	}
	f.total += matrix.NormSq(row)
	f.appended++
	if f.exact {
		f.gram.AddOuter(1, row)
		return
	}
	f.buf.AppendRow(row)
	if f.buf.Rows() >= f.bufCap {
		f.compress()
	}
}

// AppendRows processes a batch of rows: the blocked ingest fast path.
// The result is exactly the sketch that repeated Append calls would
// produce — same buffer, same compression schedule, bit-identical state —
// but the batch loop skips the per-row call and validation overhead.
// Unlike Append, the whole batch is validated up front: a bad row panics
// before any row of the batch is ingested.
//
//distlint:hotpath
func (f *FD) AppendRows(rows [][]float64) {
	for i, row := range rows {
		if len(row) != f.d {
			panic(fmt.Sprintf("sketch: FD append row %d of length %d, want %d", i, len(row), f.d))
		}
	}
	if f.exact {
		for _, row := range rows {
			f.total += matrix.NormSq(row)
			f.gram.AddOuter(1, row)
		}
		f.appended += len(rows)
		return
	}
	for i := 0; i < len(rows); {
		take := f.bufCap - f.buf.Rows()
		if take > len(rows)-i {
			take = len(rows) - i
		}
		for _, row := range rows[i : i+take] {
			f.total += matrix.NormSq(row)
			f.buf.AppendRow(row)
		}
		f.appended += take
		i += take
		if f.buf.Rows() >= f.bufCap {
			f.compress()
		}
	}
}

// compress folds the buffer into the factored sketch and shrinks back to at
// most ℓ retained directions if the combined rank exceeds ℓ. The Gram
// accumulator and eigendecomposition scratch are per-sketch and reused, so
// steady-state compression allocates nothing.
//
//distlint:hotpath
func (f *FD) compress() {
	if f.exact || f.buf.Rows() == 0 {
		return
	}
	if f.scratch == nil {
		f.scratch = matrix.NewSym(f.d)
	}
	matrix.ReconstructIntoWork(f.scratch, f.vecs, f.vals, f.colScratch())
	f.scratch.AddDenseBlock(f.buf)
	f.buf.Reset()
	f.factorAndShrink(f.scratch)
}

// colScratch returns the reusable length-d staging buffer for eigenvector
// columns.
//
//distlint:hotpath
func (f *FD) colScratch() []float64 {
	if f.col == nil {
		f.col = make([]float64, f.d) //distlint:alloc-ok one-time lazy init, reused ever after
	}
	return f.col
}

// AccumulateGram folds w times the sketch's Gram matrix BᵀB — factored
// directions plus any buffered rows, without flushing — into dst, using only
// per-sketch scratch: the allocation- and factorization-free merge the fast
// protocol paths use in place of Gram() + AddSym. w = −1 subtracts, which
// the P2 small-space variant uses for its implicit sketch difference.
//
//distlint:hotpath
func (f *FD) AccumulateGram(dst *matrix.Sym, w float64) {
	if f.exact {
		dst.AddScaledSym(w, f.gram)
		return
	}
	col := f.colScratch()
	for k, lam := range f.vals {
		if lam == 0 {
			continue
		}
		for i := 0; i < f.d; i++ {
			col[i] = f.vecs.At(i, k)
		}
		dst.AddOuter(w*lam, col)
	}
	for i := 0; i < f.buf.Rows(); i++ {
		dst.AddOuter(w, f.buf.Row(i))
	}
}

// gramFull returns a freshly allocated Gram matrix of the sketch plus any
// buffered rows.
func (f *FD) gramFull() *matrix.Sym {
	if f.exact {
		return f.gram.Clone()
	}
	g := matrix.Reconstruct(f.vecs, f.vals)
	for i := 0; i < f.buf.Rows(); i++ {
		g.AddOuter(1, f.buf.Row(i))
	}
	return g
}

// Flush folds any buffered rows into the factored form immediately.
func (f *FD) Flush() { f.compress() }

// Gram returns BᵀB for the current sketch (including buffered rows).
func (f *FD) Gram() *matrix.Sym { return f.gramFull() }

// Rows materializes the sketch matrix B: at most ℓ (and at most d) rows,
// the k-th being √vals_k · v_kᵀ. This costs one eigendecomposition in exact
// mode; use RowBound when only the count is needed.
func (f *FD) Rows() *matrix.Dense {
	vals, vecs := f.factors()
	b := matrix.NewDense(0, f.d)
	row := make([]float64, f.d)
	for k, lam := range vals {
		if lam <= 0 {
			break
		}
		s := math.Sqrt(lam)
		for i := 0; i < f.d; i++ {
			row[i] = s * vecs.At(i, k)
		}
		b.AppendRow(row)
	}
	return b
}

// RowBound returns an upper bound on the number of rows Rows() would
// return — min(ℓ, d, rows appended since Reset) — without factorizing.
// Protocol P1 uses it to account message sizes cheaply.
func (f *FD) RowBound() int {
	b := f.ell
	if f.d < b {
		b = f.d
	}
	if f.appended < b {
		b = f.appended
	}
	return b
}

// factors returns the current eigenpairs, factorizing on demand in exact
// mode and flushing the buffer in sketch mode. In exact mode the returned
// slices alias the sketch's reusable workspace and are valid only until
// the next factorization.
func (f *FD) factors() ([]float64, *matrix.Dense) {
	if !f.exact {
		f.compress()
		return f.vals, f.vecs
	}
	vals, vecs := f.eig(f.gram)
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	return vals, vecs
}

// Total returns ‖A‖²_F over everything processed.
func (f *FD) Total() float64 { return f.total }

// Deducted returns the cumulative shrink deduction; for any unit x it bounds
// ‖Ax‖² − ‖Bx‖². Zero in exact mode.
func (f *FD) Deducted() float64 { return f.deducted }

// Size returns the number of retained directions after a flush (sketch
// mode) or the rank bound (exact mode).
func (f *FD) Size() int {
	if f.exact {
		return f.RowBound()
	}
	f.compress()
	return len(f.vals)
}

// Merge folds other into f. Equivalent to appending other's materialized
// rows; the error bounds add. other is not modified.
func (f *FD) Merge(other *FD) {
	if f.d != other.d {
		panic(fmt.Sprintf("sketch: merge FD of dim %d with dim %d", other.d, f.d))
	}
	f.total += other.total
	f.deducted += other.deducted
	f.appended += other.appended
	f.shrinks += other.shrinks
	if f.exact {
		// rank(combined) ≤ d ≤ ℓ: pure Gram addition, still zero error.
		f.gram.AddSym(other.gramFull())
		return
	}
	g := f.gramFull()
	g.AddSym(other.gramFull())
	f.buf.Reset()
	f.factorAndShrink(g)
}

// factorAndShrink replaces the sketch with the factorization of g, applying
// the FD shrink (subtract the (ℓ+1)-th largest eigenvalue) if the rank of g
// exceeds ℓ, and accumulating the deduction into the error witness. g may
// be f.scratch; the eigendecomposition output is copied into the sketch's
// own storage.
func (f *FD) factorAndShrink(g *matrix.Sym) {
	vals, V := f.eig(g)
	// Clamp tiny negative eigenvalues produced by roundoff.
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	rank := 0
	for _, v := range vals {
		if v > 0 {
			rank++
		}
	}
	if rank > f.ell && f.ell < len(vals) {
		// Subtract the (ℓ+1)-th largest eigenvalue: the top ℓ directions
		// each lose exactly δ and everything beyond them vanishes, so the
		// result fits in ℓ rows and each shrink removes ≥ (ℓ+1)·δ of trace.
		delta := vals[f.ell]
		f.deducted += delta
		f.shrinks++
		for i := range vals {
			vals[i] -= delta
			if vals[i] < 0 {
				vals[i] = 0
			}
		}
	}
	keep := 0
	for _, v := range vals {
		if v > 0 {
			keep++
		} else {
			break // sorted descending, rest are ≤ 0
		}
	}
	f.vals = append(f.vals[:0], vals[:keep]...)
	f.vecs.CopyFrom(V)
}

// eig decomposes g into the sketch's reusable workspace, falling back to
// the Jacobi reference if the fast path fails: on NaN/Inf input, or on a
// finite Gram large enough to overflow inside tred2, which Jacobi still
// decomposes (matrix.TestJacobiFallbackReachable). The returned slices
// alias the workspace.
func (f *FD) eig(g *matrix.Sym) ([]float64, *matrix.Dense) {
	if f.eigWS == nil {
		f.eigWS = matrix.NewEigWorkspace()
	}
	vals, V, err := matrix.EigSymWork(g, f.eigWS)
	if err != nil {
		vals, V, err = matrix.JacobiEigSym(g)
		if err != nil {
			panic(fmt.Sprintf("sketch: FD factorization: %v", err))
		}
	}
	return vals, V
}

// Reset clears the sketch.
func (f *FD) Reset() {
	if f.exact {
		f.gram.Reset()
	} else {
		f.vals = f.vals[:0]
		f.buf.Reset()
	}
	f.appended = 0
	f.total = 0
	f.deducted = 0
	f.shrinks = 0
}
