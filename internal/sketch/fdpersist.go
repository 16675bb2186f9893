package sketch

// FDSnapshot is a self-contained image of an FD sketch's complete state,
// every float carried verbatim: two sketches with equal snapshots answer
// every query identically and continue ingesting on the same trajectory.
// The blocked equivalence fuzz harness compares ingest paths through it.
type FDSnapshot struct {
	Ell   int
	D     int
	Block int
	Exact bool

	// Exact mode: the raw d×d Gram storage.
	Gram []float64

	// Sketch mode: the factored eigenpairs (Vecs is row-major d×len(Vals),
	// the retained eigenvector columns) and the raw buffered rows.
	Vals []float64
	Vecs []float64
	Buf  [][]float64

	Appended int
	Total    float64
	Deducted float64
	Shrinks  int64
}

// Snapshot captures the sketch's complete state.
//
//distlint:unreachable-ok test oracle: FuzzFDBlockedEquivalence and the FD tests compare sketches through it
func (f *FD) Snapshot() FDSnapshot {
	s := FDSnapshot{
		Ell:      f.ell,
		D:        f.d,
		Block:    f.bufCap,
		Exact:    f.exact,
		Appended: f.appended,
		Total:    f.total,
		Deducted: f.deducted,
		Shrinks:  f.shrinks,
	}
	if f.exact {
		s.Gram = f.gram.RawData()
		return s
	}
	keep := len(f.vals)
	s.Vals = append([]float64(nil), f.vals...)
	s.Vecs = make([]float64, f.d*keep)
	for i := 0; i < f.d; i++ {
		for k := 0; k < keep; k++ {
			s.Vecs[i*keep+k] = f.vecs.At(i, k)
		}
	}
	s.Buf = make([][]float64, f.buf.Rows())
	for i := range s.Buf {
		s.Buf[i] = f.buf.RowCopy(i)
	}
	return s
}
