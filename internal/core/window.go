package core

import (
	"repro/internal/matrix"
	"repro/internal/stream"
)

// WindowedTracker approximates the matrix formed by the most recent rows of
// the distributed stream, an extension toward the sliding-window model the
// paper's conclusion poses as an open problem. It implements the standard
// restart (tumbling sub-window) construction: time is cut into sub-windows
// of size W/2; a fresh inner tracker starts at each boundary, and queries
// combine the two most recent trackers. The result covers between W/2 and
// W of the latest rows — the classic 2-approximation of a true sliding
// window, with communication ≤ 2× the inner protocol's (each row is
// processed by at most two live trackers).
//
// The true fixed-width sliding window (expire exactly the (W+1)-th row)
// remains open, as in the paper; this wrapper is the honest baseline
// against which such a protocol would be judged.
type WindowedTracker struct {
	half    int // W/2 for the target coverage of W rows: a sub-window's length
	build   func() Tracker
	current Tracker // covers the in-progress sub-window
	prev    Tracker // covers the completed previous sub-window (nil at start)
	inCur   int     // rows in current
	total   int64
	retired stream.Stats // traffic of sub-windows already dropped
}

// NewWindowedTracker wraps the trackers produced by build (each a fresh
// instance of some protocol) into a tumbling-window tracker covering the
// most recent ~window rows. window must be ≥ 2.
func NewWindowedTracker(window int, build func() Tracker) *WindowedTracker {
	if err := CheckWindow(window); err != nil {
		panic(err.Error())
	}
	return &WindowedTracker{
		half:    window / 2,
		build:   build,
		current: build(),
	}
}

// Name implements Tracker.
func (w *WindowedTracker) Name() string { return "Windowed(" + w.current.Name() + ")" }

// Dim implements Tracker.
func (w *WindowedTracker) Dim() int { return w.current.Dim() }

// Eps implements Tracker.
func (w *WindowedTracker) Eps() float64 { return w.current.Eps() }

// Sites implements SiteCounter when the inner trackers do (−1 otherwise).
func (w *WindowedTracker) Sites() int {
	if sc, ok := w.current.(SiteCounter); ok {
		return sc.Sites()
	}
	return -1
}

// ProcessRow implements Tracker.
func (w *WindowedTracker) ProcessRow(site int, row []float64) {
	w.rotate()
	w.current.ProcessRow(site, row)
	w.inCur++
	w.total++
}

// rotate retires the previous sub-window and starts a fresh tracker when
// the current sub-window is full.
func (w *WindowedTracker) rotate() {
	if w.inCur < w.half {
		return
	}
	if w.prev != nil {
		w.retired.Add(w.prev.Stats())
	}
	w.prev = w.current
	w.current = w.build()
	w.inCur = 0
}

// ProcessRows implements BatchTracker: the batch is forwarded to the inner
// trackers in chunks cut at the sub-window boundaries, so restarts happen
// at exactly the rows they would under per-row ingestion. The whole batch
// is validated before any chunk is ingested (the BatchTracker contract:
// a bad row panics with nothing applied, never mid-batch).
func (w *WindowedTracker) ProcessRows(site int, rows [][]float64) {
	validateRows(rows, w.Dim())
	for len(rows) > 0 {
		w.rotate()
		take := w.half - w.inCur
		if take > len(rows) {
			take = len(rows)
		}
		ProcessRows(w.current, site, rows[:take])
		w.inCur += take
		w.total += int64(take)
		rows = rows[take:]
	}
}

// Covered returns the number of most-recent rows the current estimate
// spans: between W/2 and W once the stream is long enough.
func (w *WindowedTracker) Covered() int {
	c := w.inCur
	if w.prev != nil {
		c += w.half
	}
	return c
}

// Gram implements Tracker: the combined Gram of the two live sub-windows.
func (w *WindowedTracker) Gram() *matrix.Sym {
	g := w.current.Gram()
	if w.prev != nil {
		g.AddSym(w.prev.Gram())
	}
	return g
}

// EstimateFrobenius implements Tracker.
func (w *WindowedTracker) EstimateFrobenius() float64 {
	f := w.current.EstimateFrobenius()
	if w.prev != nil {
		f += w.prev.EstimateFrobenius()
	}
	return f
}

// Stats implements Tracker. Retired sub-window trackers' traffic is folded
// into the running total.
func (w *WindowedTracker) Stats() stream.Stats {
	s := w.retired
	s.Add(w.current.Stats())
	if w.prev != nil {
		s.Add(w.prev.Stats())
	}
	return s
}

var _ BatchTracker = (*WindowedTracker)(nil)
