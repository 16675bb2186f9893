package core

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/stream"
)

func newWindowedP2(m int, eps float64, d, window int) *WindowedTracker {
	return NewWindowedTracker(window, func() Tracker { return NewP2(m, eps, d) })
}

func TestWindowedCoverageBounds(t *testing.T) {
	const window = 1000
	w := newWindowedP2(3, 0.2, 44, window)
	rows := lowRankRows(5000)
	asg := stream.NewRoundRobin(3)
	for i := range rows {
		w.ProcessRows(asg.Next(), rows[i:i+1])
		c := w.Covered()
		seen := i + 1
		want := seen
		if want > window {
			want = window
		}
		if c > want {
			t.Fatalf("covered %d exceeds available/window at row %d", c, seen)
		}
		if seen > window && c < window/2 {
			t.Fatalf("covered %d below W/2 at row %d", c, seen)
		}
	}
}

// TestWindowedApproximatesRecentRows verifies the combined Gram tracks the
// exact Gram of the covered suffix within the inner protocol's ε.
func TestWindowedApproximatesRecentRows(t *testing.T) {
	const (
		m, eps = 3, 0.2
		window = 800
	)
	rows := lowRankRows(3000)
	w := newWindowedP2(m, eps, 44, window)
	asg := stream.NewUniformRandom(m, 5)
	for i := range rows {
		w.ProcessRows(asg.Next(), rows[i:i+1])
	}
	// Exact Gram of the covered suffix.
	c := w.Covered()
	exact := matrix.NewSym(44)
	for _, row := range rows[len(rows)-c:] {
		exact.AddOuter(1, row)
	}
	e, err := metrics.CovarianceError(exact, w.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if e > eps {
		t.Fatalf("windowed error %v exceeds ε=%v over the covered suffix", e, eps)
	}
}

func TestWindowedForgetsOldData(t *testing.T) {
	// Phase 1 puts all mass along e1, phase 2 along e2. After phase 2 runs
	// longer than the window, the estimate must carry (almost) no e1 mass.
	const window = 400
	w := newWindowedP2(2, 0.3, 4, window)
	asg := stream.NewRoundRobin(2)
	e1 := []float64{10, 0, 0, 0}
	e2 := []float64{0, 10, 0, 0}
	for i := 0; i < 1000; i++ {
		w.ProcessRows(asg.Next(), [][]float64{e1})
	}
	for i := 0; i < 2*window; i++ {
		w.ProcessRows(asg.Next(), [][]float64{e2})
	}
	g := w.Gram()
	if g.At(0, 0) > 1e-9 {
		t.Fatalf("window still carries %v mass along the expired direction", g.At(0, 0))
	}
	if g.At(1, 1) <= 0 {
		t.Fatal("window lost the live direction")
	}
}

func TestWindowedStatsMonotone(t *testing.T) {
	w := newWindowedP2(2, 0.2, 44, 200)
	rows := lowRankRows(1200)
	asg := stream.NewRoundRobin(2)
	var prev int64
	for i := range rows {
		w.ProcessRows(asg.Next(), rows[i:i+1])
		cur := w.Stats().Total()
		if cur < prev {
			t.Fatalf("stats went backwards at row %d: %d → %d (rotation lost traffic)", i, prev, cur)
		}
		prev = cur
	}
	if prev == 0 {
		t.Fatal("windowed tracker never communicated")
	}
}

func TestWindowedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindowedTracker(1, func() Tracker { return NewP2(2, 0.2, 4) })
}

func TestWindowedName(t *testing.T) {
	w := newWindowedP2(2, 0.2, 4, 10)
	if w.Name() != "Windowed(P2)" {
		t.Fatalf("Name = %q", w.Name())
	}
	if w.half != 5 || w.Dim() != 4 || w.Eps() != 0.2 {
		t.Fatal("accessors wrong")
	}
}
