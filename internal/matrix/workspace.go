package matrix

// Reusable decomposition workspaces. The blocked ingestion paths
// (sketch.FD.AppendRows, the site runtimes) run one factorization per block
// on matrices of a fixed dimension; the plain EigSym/SVD/FactorQR entry
// points allocate every output and scratch buffer per call, which makes the
// factorization loop allocation-bound long before it is flop-bound. Each
// workspace type below owns every buffer its decomposition needs and is
// reused across calls: after the first call on a given dimension, the
// workspace-taking variants allocate nothing.
//
// Results returned by the *Work variants alias their workspace and are only
// valid until that workspace's next call. Workspaces are not safe for
// concurrent use; give each goroutine (or each sketch/site) its own.

// EigWorkspace holds the scratch for EigSymWork: the returned eigenvector
// matrix v, the tridiagonal diagonals, the sort permutation, and perm, the
// one n×n scratch — the transposed matrix tred2/tql2 reduce in place, whose
// rows the sort then writes into v's columns (JacobiEigSym, which only
// sorts, transposes its V into it first). The zero value is ready to use
// and sizes itself on first call.
type EigWorkspace struct {
	v      *Dense
	d, e   []float64
	idx    []int
	sorted []float64
	perm   *Dense
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

// SVDWorkspace holds the scratch for SVDWork: the U accumulator (loaded
// with the input), V, and the bidiagonal vectors. The zero value is ready
// to use.
type SVDWorkspace struct {
	u, v   *Dense
	w, rv1 []float64
}

// NewSVDWorkspace returns an empty workspace; buffers are sized lazily by
// the first SVDWork call.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes it with svd.go and their tests
func NewSVDWorkspace() *SVDWorkspace { return &SVDWorkspace{} }

// loadU copies a into the reusable U buffer.
func (ws *SVDWorkspace) loadU(a *Dense) *Dense {
	ws.u = reuseDense(ws.u, a.rows, a.cols, false)
	copy(ws.u.data, a.data)
	return ws.u
}

// loadUT copies aᵀ into the reusable U buffer.
func (ws *SVDWorkspace) loadUT(a *Dense) *Dense {
	ws.u = reuseDense(ws.u, a.cols, a.rows, false)
	transposeInto(ws.u.data, a.data, a.rows, a.cols)
	return ws.u
}

// transposeInto writes the row-major rows×cols matrix a into dst transposed.
func transposeInto(dst, a []float64, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j, x := range a[i*cols : (i+1)*cols] {
			dst[j*rows+i] = x
		}
	}
}

// QRWorkspace holds the scratch for FactorQRWork: the compact Householder
// storage and the R diagonal. The zero value is ready to use.
type QRWorkspace struct {
	qr    *Dense
	rdiag []float64
}

// NewQRWorkspace returns an empty workspace; buffers are sized lazily by
// the first FactorQRWork call.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes it with qr.go and their tests
func NewQRWorkspace() *QRWorkspace { return &QRWorkspace{} }

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
