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

	// Sketch mode: B's rows and the raw buffered rows.
	B   [][]float64
	Buf [][]float64

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
	for i := 0; i < f.rows.Rows(); i++ {
		if i < f.nb {
			s.B = append(s.B, f.rows.RowCopy(i))
		} else {
			s.Buf = append(s.Buf, f.rows.RowCopy(i))
		}
	}
	return s
}
