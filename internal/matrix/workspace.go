package matrix

// The reusable eigendecomposition workspace. The blocked ingestion paths
// (sketch.FD.AppendRows, the site runtimes) run one decomposition per block
// on matrices of a fixed dimension; EigSym allocates every output and
// scratch buffer per call, which makes that loop allocation-bound long
// before it is flop-bound. An EigWorkspace owns every buffer the
// decomposition needs and is reused across calls: after the first call on a
// given dimension, EigSymWork allocates nothing.
//
// What EigSymWork returns aliases its workspace and is only valid until the
// workspace's next call. A workspace is not safe for concurrent use; give
// each goroutine (or each sketch/site) its own.

// EigWorkspace holds the scratch for EigSymWork and EigAbove: the returned
// eigenvector matrix v, the tridiagonal diagonals, the sort permutation, and
// perm, the one n×n scratch — the transposed matrix tred2/tql2 reduce in
// place, whose rows the sort then writes into v's columns (JacobiEigSym,
// which only sorts, transposes its V into it first), or whose rows keep
// EigAbove's reflectors. tri and blk are EigAbove's: the scaled tridiagonal,
// its eigenvalues, the inverse iteration's factors, and the block of each
// wanted eigenvalue. The zero value is ready to use and sizes itself on
// first call.
type EigWorkspace struct {
	v      *Dense
	d, e   []float64
	idx    []int
	sorted []float64
	perm   *Dense
	tri    []float64
	blk    []int
}

// NewEigWorkspace returns an empty workspace; buffers are sized lazily by
// the first EigSymWork call.
func NewEigWorkspace() *EigWorkspace { return &EigWorkspace{} }

func (ws *EigWorkspace) reserve(n int) {
	ws.v = reuseDense(ws.v, n, n, false)
	ws.d = growFloats(ws.d, n)
	ws.e = growFloats(ws.e, n)
	ws.reserveSort(n)
}

// reserveAbove sizes what EigAbove touches: reserve's buffers, v at n×n so
// that any number of returned vectors fits, tri and blk.
func (ws *EigWorkspace) reserveAbove(n int) {
	ws.reserve(n)
	ws.tri = growFloats(ws.tri, 10*n)
	if cap(ws.blk) < 2*n {
		ws.blk = make([]int, 2*n)
	}
	ws.blk = ws.blk[:2*n]
}

// reserveSort sizes only the permutation buffers and the n×n scratch — all
// sortEigDescWork touches — so the sort-only path (JacobiEigSym) skips the
// eigensolver's output matrix and tridiagonal scratch.
func (ws *EigWorkspace) reserveSort(n int) {
	ws.sorted = growFloats(ws.sorted, n)
	if cap(ws.idx) < n {
		ws.idx = make([]int, n)
	}
	ws.idx = ws.idx[:n]
	ws.perm = reuseDense(ws.perm, n, n, false)
}

// transposeInto writes the row-major rows×cols matrix a into dst transposed.
func transposeInto(dst, a []float64, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j, x := range a[i*cols : (i+1)*cols] {
			dst[j*rows+i] = x
		}
	}
}

// reuseDense resizes m to r×c reusing its backing array when it is large
// enough, zeroing the contents when zero is set. A nil m allocates fresh.
func reuseDense(m *Dense, r, c int, zero bool) *Dense {
	if m == nil || cap(m.data) < r*c {
		return NewDense(r, c)
	}
	m.rows, m.cols = r, c
	m.data = m.data[:r*c]
	if zero {
		for i := range m.data {
			m.data[i] = 0
		}
	}
	return m
}

// growFloats resizes buf to length n, reusing its backing array when
// possible. Contents are unspecified; callers must fully overwrite.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
