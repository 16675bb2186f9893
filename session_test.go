package distmat_test

import (
	"errors"
	"math"
	"testing"

	distmat "repro"
)

// TestMatrixSessionEndToEnd exercises the batch ingestion path: build by
// name, stream in one call, evaluate from the snapshot.
func TestMatrixSessionEndToEnd(t *testing.T) {
	const m, eps, d = 6, 0.2, 44
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(2500))

	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithExactTracking())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}

	snap := sess.Snapshot()
	if snap.Kind != "matrix" || snap.Protocol != "p2" {
		t.Fatalf("snapshot identity %q/%q", snap.Kind, snap.Protocol)
	}
	if snap.Config.Assigner != nil {
		t.Fatal("snapshot leaked the live assigner")
	}
	if snap.Count != int64(len(rows)) || sess.Count() != int64(len(rows)) {
		t.Fatalf("count %d, want %d", snap.Count, len(rows))
	}
	errVal, err := distmat.CovarianceError(snap.Exact, snap.Gram)
	if err != nil {
		t.Fatal(err)
	}
	if errVal > eps {
		t.Fatalf("covariance error %v exceeds ε=%v", errVal, eps)
	}
	if snap.Stats.Total() == 0 || snap.Stats.Total() >= int64(len(rows)) {
		t.Fatalf("message count %d implausible for N=%d", snap.Stats.Total(), len(rows))
	}
	if snap.Frobenius <= 0 {
		t.Fatalf("Frobenius estimate %v", snap.Frobenius)
	}
}

// TestSessionMatchesRun asserts a session built by name with WithSeed(s)
// and a wrapped tracker fed through NewUniformRandom(m, s) drive the
// protocol identically (same assigner stream → same tally).
func TestSessionMatchesRun(t *testing.T) {
	const m, eps, d = 4, 0.2, 16
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 1500, D: d, Beta: 50, Seed: 3})

	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}

	tr := newMatrix(t, "p2", m, eps, d)
	runMatrix(t, tr, rows, distmat.NewUniformRandom(m, 9))
	if sess.Stats() != tr.Stats() {
		t.Fatalf("session stats %v != wrapped stats %v", sess.Stats(), tr.Stats())
	}

	items := distmat.ZipfStream(distmat.DefaultZipfConfig(20000))
	hsess, err := distmat.NewHHSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(0.01), distmat.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := hsess.ProcessItems(items); err != nil {
		t.Fatal(err)
	}
	p := newHH(t, "p2", m, 0.01)
	runHH(t, p, items, distmat.NewUniformRandom(m, 9))
	if hsess.Stats() != p.Stats() {
		t.Fatalf("session stats %v != wrapped stats %v", hsess.Stats(), p.Stats())
	}
	if hsess.HH().EstimateTotal() != p.EstimateTotal() {
		t.Fatalf("total %v != %v", hsess.HH().EstimateTotal(), p.EstimateTotal())
	}
}

// TestSnapshotImmutable asserts a snapshot neither changes under further
// ingestion nor leaks mutations back into the live session.
func TestSnapshotImmutable(t *testing.T) {
	const m, eps, d = 3, 0.3, 8
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 2000, D: d, Beta: 50, Seed: 11})

	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithExactTracking())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessRows(rows[:1000]); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	frozenGram := snap.Gram.At(0, 0)
	frozenExact := snap.Exact.At(0, 0)

	if err := sess.ProcessRows(rows[1000:]); err != nil {
		t.Fatal(err)
	}
	if snap.Gram.At(0, 0) != frozenGram || snap.Exact.At(0, 0) != frozenExact {
		t.Fatal("snapshot mutated by further ingestion")
	}
	if sess.Snapshot().Exact.At(0, 0) == frozenExact {
		t.Fatal("live exact Gram did not advance")
	}

	// Mutating the snapshot must not touch the live session.
	live := sess.Snapshot().Gram.At(0, 0)
	snap.Gram.Set(0, 0, -1234)
	snap.Exact.Set(0, 0, -1234)
	if sess.Snapshot().Gram.At(0, 0) != live {
		t.Fatal("snapshot mutation leaked into the session")
	}
}

// TestSessionAssignerReconciliation asserts the protocol and the assigner
// always agree on m: an assigner alone supplies the site count, and an
// explicit conflict is a config error up front, not a later panic.
func TestSessionAssignerReconciliation(t *testing.T) {
	// Assigner only: sites adopted from it; site 7 must be processable.
	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithEpsilon(0.1), distmat.WithDim(4),
		distmat.WithAssigner(distmat.NewRoundRobin(8)))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Config().Sites != 8 {
		t.Fatalf("sites %d, want 8 (adopted from assigner)", sess.Config().Sites)
	}
	for i := 0; i < 16; i++ { // a full round-robin cycle touches every site
		if err := sess.ProcessRow([]float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}

	// Explicit conflict: ErrInvalidConfig at construction.
	for _, build := range map[string]func() error{
		"matrix": func() error {
			_, err := distmat.NewMatrixSession("p2", distmat.WithSites(4),
				distmat.WithEpsilon(0.1), distmat.WithDim(4),
				distmat.WithAssigner(distmat.NewRoundRobin(8)))
			return err
		},
		"hh": func() error {
			_, err := distmat.NewHHSession("p2", distmat.WithSites(4),
				distmat.WithEpsilon(0.1), distmat.WithAssigner(distmat.NewRoundRobin(8)))
			return err
		},
		"quantile": func() error {
			_, err := distmat.NewQuantileSession(distmat.WithSites(4),
				distmat.WithEpsilon(0.1), distmat.WithBits(8),
				distmat.WithAssigner(distmat.NewRoundRobin(8)))
			return err
		},
	} {
		if err := build(); !errors.Is(err, distmat.ErrInvalidConfig) {
			t.Fatalf("conflicting sites/assigner: got %v, want ErrInvalidConfig", err)
		}
	}
}

// TestSessionWrongKind asserts cross-kind operations fail with ErrWrongKind.
func TestSessionWrongKind(t *testing.T) {
	msess, err := distmat.NewMatrixSession("p1",
		distmat.WithSites(2), distmat.WithEpsilon(0.2), distmat.WithDim(4))
	if err != nil {
		t.Fatal(err)
	}
	hsess, err := distmat.NewHHSession("p1", distmat.WithSites(2), distmat.WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}

	if err := msess.ProcessItems([]distmat.WeightedItem{{Elem: 1, Weight: 1}}); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("matrix ProcessItem: %v", err)
	}
	if err := hsess.ProcessRow([]float64{1, 2, 3, 4}); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("hh ProcessRow: %v", err)
	}
	if _, err := msess.HeavyHitters(0.1); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("matrix HeavyHitters: %v", err)
	}
	if _, err := hsess.Quantile(0.5); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("hh Quantile: %v", err)
	}
	if hsess.Snapshot().Gram != nil || msess.HH() != nil {
		t.Fatal("cross-kind accessors should be nil")
	}
}

// TestSessionBadInput asserts malformed rows/items error instead of
// panicking, naming the offending index.
func TestSessionBadInput(t *testing.T) {
	msess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(2), distmat.WithEpsilon(0.2), distmat.WithDim(4))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{{1, 2, 3, 4}, {1, 2, 3}}
	if err := msess.ProcessRows(bad); !errors.Is(err, distmat.ErrDimensionMismatch) {
		t.Fatalf("short row: %v", err)
	}
	if msess.Count() != 1 {
		t.Fatalf("count %d after partial batch, want 1", msess.Count())
	}

	hsess, err := distmat.NewHHSession("p2", distmat.WithSites(2), distmat.WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	// Weights must be positive and finite on every item session, sharded
	// or not. NaN is the case a plain w ≤ 0 test lets through, after which
	// every εŴ threshold comparison is false forever.
	for _, shards := range []int{0, 4} {
		h, err := distmat.NewHHSession("p2", distmat.WithSites(2), distmat.WithEpsilon(0.2), distmat.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		q, err := distmat.NewQuantileSession(distmat.WithSites(2), distmat.WithEpsilon(0.2), distmat.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, sess := range []*distmat.Session{h, q} {
			for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
				it := distmat.WeightedItem{Elem: 1, Weight: w}
				if err := sess.ProcessItems([]distmat.WeightedItem{it}); !errors.Is(err, distmat.ErrInvalidItem) {
					t.Fatalf("%s/%d shards: weight %v: %v, want ErrInvalidItem", sess.Snapshot().Kind, shards, w, err)
				}
				if err := sess.ProcessItemsAt(0, []distmat.WeightedItem{it}); !errors.Is(err, distmat.ErrInvalidItem) {
					t.Fatalf("%s/%d shards: weight %v at a site: %v, want ErrInvalidItem", sess.Snapshot().Kind, shards, w, err)
				}
			}
			if snap := sess.Snapshot(); snap.Count != 0 || math.IsNaN(snap.Total) {
				t.Fatalf("%s/%d shards: rejected items reached the tracker: count %d, total %v",
					sess.Snapshot().Kind, shards, snap.Count, snap.Total)
			}
			sess.Close()
		}
	}
	if _, err := hsess.HeavyHitters(1.5); !errors.Is(err, distmat.ErrInvalidQuery) {
		t.Fatalf("phi out of range: %v", err)
	}

	qsess, err := distmat.NewQuantileSession(
		distmat.WithSites(2), distmat.WithEpsilon(0.2), distmat.WithBits(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := qsess.ProcessItems([]distmat.WeightedItem{{Elem: 16, Weight: 1}}); !errors.Is(err, distmat.ErrInvalidItem) {
		t.Fatalf("value outside universe: %v", err)
	}
}

// TestHHSessionHeavyHitters exercises queries and the estimate snapshot on
// a Zipf stream.
func TestHHSessionHeavyHitters(t *testing.T) {
	const m, eps, phi = 6, 0.01, 0.05
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(50000))

	sess, err := distmat.NewHHSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessItems(items); err != nil {
		t.Fatal(err)
	}
	hot, err := sess.HeavyHitters(phi)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 || hot[0].Elem != 0 {
		t.Fatalf("heavy hitters %v; want the Zipf head (elem 0) first", hot)
	}
	snap := sess.Snapshot()
	if snap.Total <= 0 || len(snap.Estimates) == 0 {
		t.Fatalf("snapshot totals %v / %d estimates", snap.Total, len(snap.Estimates))
	}
	for i := 1; i < len(snap.Estimates); i++ {
		if snap.Estimates[i].Weight > snap.Estimates[i-1].Weight {
			t.Fatal("snapshot estimates not sorted by descending weight")
		}
	}
	if est := sess.HH().Estimate(hot[0].Elem); est <= 0 {
		t.Fatalf("Estimate = %v", est)
	}
}

// TestQuantileSession checks the rank guarantee on a uniform stream.
func TestQuantileSession(t *testing.T) {
	const m, eps = 4, 0.1
	sess, err := distmat.NewQuantileSession(
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithBits(10),
		distmat.WithAssigner(distmat.NewRoundRobin(m)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := sess.ProcessItems([]distmat.WeightedItem{{Elem: uint64(i % 1024), Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	med, err := sess.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 400 || med > 624 {
		t.Fatalf("median %d outside εW rank band around 512", med)
	}
	if sess.Snapshot().Total <= 0 {
		t.Fatal("no total weight estimate")
	}
}

// TestWindowedSession asserts WithWindow wraps the tracker in the tumbling
// construction and Covered stays within [W/2, W].
func TestWindowedSession(t *testing.T) {
	const m, eps, d, window = 3, 0.2, 16, 500
	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 2000, D: d, Beta: 50, Seed: 7})
	if err := sess.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}
	if c := sess.Covered(); c < window/2 || c > window {
		t.Fatalf("covered %d outside [W/2, W]", c)
	}
	if sess.Snapshot().Gram.Trace() <= 0 {
		t.Fatal("empty window estimate")
	}
}

// TestWrapSessions asserts hand-built trackers slot into the session path.
func TestWrapSessions(t *testing.T) {
	const m, eps, d = 3, 0.2, 8
	w := distmat.NewWindowedTracker(400, func() distmat.MatrixTracker {
		return newMatrix(t, "p2", m, eps, d)
	})
	sess, err := distmat.WrapMatrixSession(w,
		distmat.WithAssigner(distmat.NewRoundRobin(m)), distmat.WithExactTracking())
	if err != nil {
		t.Fatal(err)
	}
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 1000, D: d, Beta: 20, Seed: 13})
	if err := sess.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}
	if c := sess.Covered(); c < 200 || c > 400 {
		t.Fatalf("wrapped windowed coverage %d", c)
	}
	if cfg := sess.Config(); cfg.Dim != d || cfg.Sites != m {
		t.Fatalf("config echo %+v", cfg)
	}

	p := distmat.NewHHExact(m)
	hsess, err := distmat.WrapHHSession(p, distmat.WithAssigner(distmat.NewRoundRobin(m)))
	if err != nil {
		t.Fatal(err)
	}
	if err := hsess.ProcessItems(distmat.ZipfStream(distmat.DefaultZipfConfig(1000))); err != nil {
		t.Fatal(err)
	}
	if hsess.Snapshot().Total <= 0 {
		t.Fatal("wrapped exact protocol tracked nothing")
	}
}
