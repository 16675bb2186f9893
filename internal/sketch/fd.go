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
// The sketch is stored as B's rows, followed by the raw rows buffered since
// the last compression. A full buffer (2ℓ rows by default) is folded in by
// one compression of the stacked m×d matrix M = [B; buffer], the blocked
// variant the FD paper (and Section 5.2 of the tracking paper) describes:
// it decomposes the smaller Gram of M — the m×m MMᵀ when m < d, whose
// eigenpairs (λᵢ, uᵢ) give the new rows √((λᵢ−δ)/λᵢ)·uᵢᵀM, else the d×d MᵀM,
// whose eigenpairs (λᵢ, vᵢ) give √(λᵢ−δ)·vᵢᵀ. Appending is an O(d) copy,
// and with ℓ + block < d the compression amortizes to O(dℓ + ℓ²) work a
// row (O(d³/ℓ) otherwise); its scratch is reused across blocks, so the
// steady-state append path allocates nothing. AppendRows ingests whole
// batches and is exactly equivalent to appending its rows one at a time
// (same buffer, same compression schedule, bit-identical state);
// NewFDBuffered exposes the block size, with block 1 reproducing the
// unblocked one-compression-per-row baseline the benchmarks compare
// against.
//
// When ℓ ≥ d the sketch can never overflow (rank(B) ≤ d ≤ ℓ), so it runs in
// an exact mode that accumulates the Gram matrix directly with zero error
// and no factorizations; this is the regime protocol P1 enters at small ε.
//
// FD sketches are mergeable: Merge(other) never increases the summed error
// bound (Agarwal et al., PODS 2012).
type FD struct {
	ell int // sketch size: max rows of B
	d   int // row dimension

	// Exact mode (ℓ ≥ d): the Gram matrix alone carries the sketch.
	exact bool
	gram  *matrix.Sym

	// Sketch mode (ℓ < d): M = [B; buffer], B being the first nb rows.
	rows *matrix.Dense
	nb   int

	bufCap   int
	appended int     // rows appended since Reset (bounds rank)
	total    float64 // ‖A‖²_F of everything processed
	deducted float64 // cumulative shrink deduction: the error witness
	shrinks  int64   // number of shrink deductions applied

	// Reusable compression scratch (lazily allocated): Mᵀ, the Gram
	// decomposed, its workspace, one eigenvector scaled, and the new rows
	// before they replace M.
	t     *matrix.Dense
	g     *matrix.Sym
	eigWS *matrix.EigWorkspace
	coef  []float64
	next  *matrix.Dense
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
// one compression runs per block, so larger blocks amortize the
// decomposition over more rows at the cost of a block×d row buffer.
// block ≥ 1; block 1 is the unblocked row-at-a-time baseline (one
// compression per row once the sketch saturates). The block size changes
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
	f.rows = matrix.NewDense(0, d)
	f.next = matrix.NewDense(0, d)
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
	f.rows.AppendRow(row)
	if f.rows.Rows()-f.nb >= f.bufCap {
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
		take := min(f.bufCap-(f.rows.Rows()-f.nb), len(rows)-i)
		for _, row := range rows[i : i+take] {
			f.total += matrix.NormSq(row)
			f.rows.AppendRow(row)
		}
		f.appended += take
		i += take
		if f.rows.Rows()-f.nb >= f.bufCap {
			f.compress()
		}
	}
}

// compress folds the buffer into B: M = [B; buffer] becomes at most ℓ rows
// whose Gram is MᵀM less the shrink, through the eigenpairs of the smaller
// of MMᵀ and MᵀM. M of at most ℓ rows is kept as it stands (its rank is at
// most ℓ, so there is nothing to shrink).
//
//distlint:hotpath
func (f *FD) compress() {
	if f.exact || f.rows.Rows() == f.nb {
		return
	}
	m := f.rows.Rows()
	if m <= f.ell {
		f.nb = m
		return
	}
	small := m < f.d
	if small {
		f.t = matrix.TransposeInto(f.t, f.rows)
		f.g = matrix.GramInto(f.g, f.t)
	} else {
		f.g = matrix.GramInto(f.g, f.rows)
	}
	vals, V := f.eig(f.g)
	delta, keep := f.shrink(vals)
	if cap(f.coef) < len(vals) {
		f.coef = make([]float64, len(vals)) //distlint:alloc-ok grows to the widest Gram once, reused ever after
	}
	coef := f.coef[:len(vals)]
	f.next.Reset()
	for k, lam := range vals[:keep] {
		s := math.Sqrt(lam - delta)
		if small {
			s = math.Sqrt((lam - delta) / lam) // ‖uₖᵀM‖ = √λₖ
		}
		for j := range coef {
			coef[j] = float64(s * V.At(j, k))
		}
		if small {
			f.next.AppendCombination(f.rows, coef)
		} else {
			f.next.AppendRow(coef)
		}
	}
	f.rows.Reset()
	for i := 0; i < keep; i++ {
		f.rows.AppendRow(f.next.Row(i))
	}
	f.nb = keep
}

// shrink applies the FD shrink to vals, the descending eigenvalues of M's
// Gram (roundoff negatives clamped to 0): if more than ℓ are positive, δ
// is the (ℓ+1)-th largest and joins the error witness — the top ℓ
// directions each lose exactly δ and everything beyond them vanishes, so
// the result fits in ℓ rows and each shrink removes ≥ (ℓ+1)·δ of trace.
// It returns δ (0 with no shrink) and the number of directions left above
// it.
func (f *FD) shrink(vals []float64) (delta float64, keep int) {
	rank := 0
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		} else if v > 0 {
			rank++
		}
	}
	if rank > f.ell {
		delta = vals[f.ell]
		f.deducted += delta
		f.shrinks++
	}
	for keep < len(vals) && vals[keep] > delta {
		keep++
	}
	return delta, keep
}

// AccumulateGram folds w times the sketch's Gram matrix BᵀB — buffered rows
// included, without flushing — into dst, allocating nothing and factoring
// nothing: the merge the fast protocol paths use in place of Gram() +
// AddSym. w = −1 subtracts, which the P2 small-space variant uses for its
// implicit sketch difference.
//
//distlint:hotpath
func (f *FD) AccumulateGram(dst *matrix.Sym, w float64) {
	if f.exact {
		dst.AddScaledSym(w, f.gram)
		return
	}
	for i := 0; i < f.rows.Rows(); i++ {
		dst.AddOuter(w, f.rows.Row(i))
	}
}

// Flush folds any buffered rows into B immediately.
func (f *FD) Flush() { f.compress() }

// Gram returns BᵀB for the current sketch (including buffered rows).
func (f *FD) Gram() *matrix.Sym {
	if f.exact {
		return f.gram.Clone()
	}
	g := matrix.NewSym(f.d)
	f.AccumulateGram(g, 1)
	return g
}

// Rows materializes the sketch matrix B: at most ℓ (and at most d) rows.
// In sketch mode it flushes the buffer and copies B; in exact mode it
// costs one eigendecomposition, row k being √λ_k·v_kᵀ. Use RowBound when
// only the count is needed.
func (f *FD) Rows() *matrix.Dense {
	b := matrix.NewDense(0, f.d)
	if !f.exact {
		f.compress()
		for i := 0; i < f.nb; i++ {
			b.AppendRow(f.rows.Row(i))
		}
		return b
	}
	vals, vecs := f.eig(f.gram)
	row := make([]float64, f.d)
	for k, lam := range vals {
		if lam <= 0 {
			break
		}
		s := math.Sqrt(lam)
		for i := range row {
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
	return min(f.ell, f.d, f.appended)
}

// Total returns ‖A‖²_F over everything processed.
func (f *FD) Total() float64 { return f.total }

// Deducted returns the cumulative shrink deduction; for any unit x it bounds
// ‖Ax‖² − ‖Bx‖². Zero in exact mode.
func (f *FD) Deducted() float64 { return f.deducted }

// Size returns the number of rows of B after a flush (sketch mode) or the
// rank bound (exact mode).
func (f *FD) Size() int {
	if f.exact {
		return f.RowBound()
	}
	f.compress()
	return f.nb
}

// Merge folds other into f: other's rows, buffer included, are stacked
// under f's and compressed, or in exact mode its Gram is added. The error
// bounds add. other is not modified.
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
		other.AccumulateGram(f.gram, 1)
		return
	}
	rows := other.rows
	if other.exact {
		rows = other.Rows()
	}
	for i, n := 0, rows.Rows(); i < n; i++ {
		f.rows.AppendRow(rows.Row(i))
	}
	f.compress()
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
		f.rows.Reset()
		f.nb = 0
	}
	f.appended = 0
	f.total = 0
	f.deducted = 0
	f.shrinks = 0
}
