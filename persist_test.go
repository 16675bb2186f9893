package distmat_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	distmat "repro"
)

// saveRestore round-trips a session through SaveState/RestoreSession.
func saveRestore(t *testing.T, s *distmat.Session) *distmat.Session {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := distmat.RestoreSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHHSessionSaveRestoreResume checks that a heavy-hitters session
// restored mid-stream stays in lockstep with the uninterrupted original.
func TestHHSessionSaveRestoreResume(t *testing.T) {
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(20_000))
	half := len(items) / 2

	sess, err := distmat.NewHHSession("p2",
		distmat.WithSites(6), distmat.WithEpsilon(0.05), distmat.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessItems(items[:half]); err != nil {
		t.Fatal(err)
	}

	restored := saveRestore(t, sess)
	if snap := restored.Snapshot(); snap.Kind != "heavy-hitters" || snap.Protocol != "p2" {
		t.Fatalf("restored as %s/%s", snap.Kind, snap.Protocol)
	}
	if restored.Count() != sess.Count() {
		t.Fatalf("count %d after restore, want %d", restored.Count(), sess.Count())
	}

	// Resume both with the identical tail; the restored session replays the
	// assigner draws, so the runs must stay bit-identical.
	if err := sess.ProcessItems(items[half:]); err != nil {
		t.Fatal(err)
	}
	if err := restored.ProcessItems(items[half:]); err != nil {
		t.Fatal(err)
	}
	a, b := sess.Snapshot(), restored.Snapshot()
	if a.Total != b.Total || a.Stats != b.Stats || len(a.Estimates) != len(b.Estimates) {
		t.Fatalf("diverged after resume: total %v vs %v, stats %v vs %v, %d vs %d estimates",
			a.Total, b.Total, a.Stats, b.Stats, len(a.Estimates), len(b.Estimates))
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("estimate %d: %+v vs %+v", i, a.Estimates[i], b.Estimates[i])
		}
	}
}

// TestMatrixSessionSaveRestoreResume does the same for a matrix session
// with exact tracking on.
func TestMatrixSessionSaveRestoreResume(t *testing.T) {
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(2_000))
	half := len(rows) / 2

	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(4), distmat.WithEpsilon(0.2), distmat.WithDim(44),
		distmat.WithExactTracking())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessRows(rows[:half]); err != nil {
		t.Fatal(err)
	}

	restored := saveRestore(t, sess)
	if err := sess.ProcessRows(rows[half:]); err != nil {
		t.Fatal(err)
	}
	if err := restored.ProcessRows(rows[half:]); err != nil {
		t.Fatal(err)
	}
	a, b := sess.Snapshot(), restored.Snapshot()
	if a.Frobenius != b.Frobenius || a.Stats != b.Stats {
		t.Fatalf("diverged after resume: F̂ %v vs %v, stats %v vs %v", a.Frobenius, b.Frobenius, a.Stats, b.Stats)
	}
	if !slices.Equal(a.Gram.RawData(), b.Gram.RawData()) {
		t.Fatal("Gram estimates diverged after resume")
	}
	if !slices.Equal(a.Exact.RawData(), b.Exact.RawData()) {
		t.Fatal("exact Grams diverged after resume")
	}
}

// TestQuantileSessionSaveRestore checks quantile sessions restore to
// identical query answers, including per-site ingestion.
func TestQuantileSessionSaveRestore(t *testing.T) {
	sess, err := distmat.NewQuantileSession(
		distmat.WithSites(5), distmat.WithEpsilon(0.05), distmat.WithBits(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		it := distmat.WeightedItem{Elem: uint64(i % 4096), Weight: 1 + float64(i%3)}
		if err := sess.ProcessItemsAt(i%5, []distmat.WeightedItem{it}); err != nil {
			t.Fatal(err)
		}
	}
	restored := saveRestore(t, sess)
	for _, phi := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		want, err := sess.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("quantile(%v) = %d after restore, want %d", phi, got, want)
		}
	}
	if sess.Snapshot().Stats != restored.Snapshot().Stats {
		t.Fatal("stats diverged")
	}
}

// TestSaveStateNotPersistable checks the randomized, P2SmallSpace and
// windowed sessions report ErrNotPersistable instead of saving garbage.
func TestSaveStateNotPersistable(t *testing.T) {
	p3, err := distmat.NewMatrixSession("p3",
		distmat.WithSites(2), distmat.WithEpsilon(0.3), distmat.WithDim(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.SaveState(&bytes.Buffer{}); !errors.Is(err, distmat.ErrNotPersistable) {
		t.Fatalf("p3 SaveState: %v, want ErrNotPersistable", err)
	}

	// P2SmallSpace embeds *core.P2, but its FD-pair sites have no
	// snapshot form: it must never pass for a persistable P2.
	small, err := distmat.NewMatrixSession("p2small",
		distmat.WithSites(2), distmat.WithEpsilon(0.3), distmat.WithDim(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SaveState(&bytes.Buffer{}); !errors.Is(err, distmat.ErrNotPersistable) {
		t.Fatalf("p2small SaveState: %v, want ErrNotPersistable", err)
	}

	win, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(2), distmat.WithEpsilon(0.3), distmat.WithDim(8),
		distmat.WithWindow(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := win.SaveState(&bytes.Buffer{}); !errors.Is(err, distmat.ErrNotPersistable) {
		t.Fatalf("windowed SaveState: %v, want ErrNotPersistable", err)
	}

	hh3, err := distmat.NewHHSession("p3", distmat.WithSites(2), distmat.WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := hh3.SaveState(&bytes.Buffer{}); !errors.Is(err, distmat.ErrNotPersistable) {
		t.Fatalf("hh p3 SaveState: %v, want ErrNotPersistable", err)
	}
}

// TestProcessAtValidation checks the per-site ingestion surface rejects
// out-of-range sites.
func TestProcessAtValidation(t *testing.T) {
	sess, err := distmat.NewHHSession("p2", distmat.WithSites(3), distmat.WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	it := distmat.WeightedItem{Elem: 1, Weight: 1}
	if err := sess.ProcessItemsAt(3, []distmat.WeightedItem{it}); !errors.Is(err, distmat.ErrInvalidSite) {
		t.Fatalf("site 3 of 3: %v, want ErrInvalidSite", err)
	}
	if err := sess.ProcessItemsAt(-1, []distmat.WeightedItem{it}); !errors.Is(err, distmat.ErrInvalidSite) {
		t.Fatalf("site -1: %v, want ErrInvalidSite", err)
	}
	if err := sess.ProcessItemsAt(2, []distmat.WeightedItem{it}); err != nil {
		t.Fatal(err)
	}

	mat, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(2), distmat.WithEpsilon(0.3), distmat.WithDim(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := mat.ProcessRowsAt(5, [][]float64{make([]float64, 4)}); !errors.Is(err, distmat.ErrInvalidSite) {
		t.Fatalf("row site 5 of 2: %v, want ErrInvalidSite", err)
	}
	if err := mat.ProcessRowsAt(1, [][]float64{make([]float64, 3)}); !errors.Is(err, distmat.ErrDimensionMismatch) {
		t.Fatalf("short row: %v, want ErrDimensionMismatch", err)
	}
}
