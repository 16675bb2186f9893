package node

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// TestLocalMatClusterGuarantee runs the matrix P2 deployment with one
// feeder goroutine per site and verifies the covariance guarantee under
// true concurrency (run with -race).
func TestLocalMatClusterGuarantee(t *testing.T) {
	const m, eps, d = 6, 0.2, 44
	cl, err := NewLocalMatCluster(m, eps, d)
	if err != nil {
		t.Fatal(err)
	}

	cfg := gen.PAMAPLike(3000)
	rows := gen.LowRankMatrix(cfg)
	perSite := make([][][]float64, m)
	for i, r := range rows {
		perSite[i%m] = append(perSite[i%m], r)
	}

	var wg sync.WaitGroup
	for site := 0; site < m; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for _, r := range perSite[site] {
				if err := cl.Feed(site, r); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
		}(site)
	}
	wg.Wait()

	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	e, err := metrics.CovarianceError(exact, cl.Coordinator.Gram())
	if err != nil {
		t.Fatal(err)
	}
	// Concurrency perturbs scheduling, not the bound structure: allow 1.5ε.
	if e > 1.5*eps {
		t.Fatalf("covariance error %v exceeds 1.5ε=%v", e, 1.5*eps)
	}
	if cl.Coordinator.Received() == 0 {
		t.Fatal("no traffic")
	}
	var sent int64
	for _, s := range cl.Sites {
		sent += s.Sent()
	}
	if sent >= int64(len(rows)) {
		t.Fatalf("sites sent %d messages for %d rows", sent, len(rows))
	}
}

func TestMatSiteRejectsBadRows(t *testing.T) {
	s, err := NewMatSite(0, 2, 0.2, 4, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.HandleRow([]float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := s.HandleRow([]float64{0, 0, 0, 0}); err == nil {
		t.Fatal("expected zero-norm error")
	}
	if err := s.HandleBroadcast(Message{Kind: KindTotal}); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestMatCoordinatorRejectsBadRows(t *testing.T) {
	c, err := NewMatCoordinator(2, 0.2, 4, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Handle(Message{Kind: KindRow, Vec: []float64{1}}); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := c.Handle(Message{Kind: KindElement}); err == nil {
		t.Fatal("expected kind error")
	}
}

// TestMatSiteShipsWhatItMust feeds a single dominant direction and checks
// the site ships it once its mass crosses the threshold.
func TestMatSiteShipsWhatItMust(t *testing.T) {
	var got []Message
	s, err := NewMatSite(0, 1, 0.5, 3, SenderFunc(func(m Message) error {
		got = append(got, m)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{2, 0, 0}
	for i := 0; i < 10; i++ {
		if err := s.HandleRow(row); err != nil {
			t.Fatal(err)
		}
	}
	var rows int
	for _, m := range got {
		if m.Kind == KindRow {
			rows++
			// The shipped direction must align with e1.
			if matrix.NormSq(m.Vec) <= 0 || m.Vec[1] != 0 || m.Vec[2] != 0 {
				t.Fatalf("shipped row %v not along e1", m.Vec)
			}
		}
	}
	if rows == 0 {
		t.Fatal("site never shipped the dominant direction")
	}
}

// TestMatSiteNonFiniteRowsAndEigensolverFailure is the one answer to "the
// eigensolver failed": a row whose norm is not a positive finite number is
// refused before anything is ingested (HandleRow and HandleRows alike, exact
// and fast), and a failure inside the half — reachable only through a
// poisoned half once such rows are refused — comes back as an error from
// every entry point instead of being swallowed.
func TestMatSiteNonFiniteRowsAndEigensolverFailure(t *testing.T) {
	drop := SenderFunc(func(Message) error { return nil })
	good := []float64{1, 2, 3}
	// state is everything a step may change: the half, its F̂ and the
	// wrapper's message counter.
	type siteState struct {
		Half core.P2SiteSnapshot
		Fhat float64
		Sent int64
	}
	state := func(s *MatSite) siteState { return siteState{s.half.Snapshot(), s.half.Estimate(), s.sent} }
	for _, tc := range []struct {
		name string
		row  []float64
	}{
		{"overflowing norm", []float64{1e200, 1, 1}},
		{"infinite entry", []float64{math.Inf(1), 0, 0}},
		{"NaN entry", []float64{math.NaN(), 1, 1}},
		{"zero row", []float64{0, 0, 0}},
	} {
		for _, build := range []func(int, int, float64, int, Sender) (*MatSite, error){NewMatSite, NewMatSiteFast} {
			s, err := build(0, 2, 0.2, 3, drop)
			if err != nil {
				t.Fatal(err)
			}
			before := state(s)
			if err := s.HandleRow(tc.row); err == nil {
				t.Errorf("%s: HandleRow accepted %v", tc.name, tc.row)
			}
			if err := s.HandleRows([][]float64{good, tc.row}); err == nil {
				t.Errorf("%s: HandleRows accepted %v", tc.name, tc.row)
			}
			if after := state(s); !reflect.DeepEqual(before, after) {
				t.Errorf("%s: a refused row changed the site: %+v → %+v", tc.name, before, after)
			}
		}
	}

	poisoned := core.P2SiteSnapshot{Gram: make([]float64, 9), LamBound: 10}
	for i := range poisoned.Gram {
		poisoned.Gram[i] = math.NaN()
	}
	for _, fast := range []bool{false, true} {
		for name, feed := range map[string]func(*MatSite) error{
			"HandleRow":  func(s *MatSite) error { return s.HandleRow(good) },
			"HandleRows": func(s *MatSite) error { return s.HandleRows([][]float64{good, good}) },
		} {
			s, err := newMatSite(0, 2, 0.2, 3, drop, fast)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.half.Restore(poisoned); err != nil {
				t.Fatal(err)
			}
			s.half.SetEstimate(1)
			if err := feed(s); err == nil || !strings.Contains(err.Error(), "eigendecomposition failed") {
				t.Errorf("fast=%v %s on a NaN Gram returned %v, want the half's eigendecomposition failure", fast, name, err)
			}
		}
	}
}

func BenchmarkLocalMatClusterThroughput(b *testing.B) {
	cl, err := NewLocalMatCluster(8, 0.1, 44)
	if err != nil {
		b.Fatal(err)
	}
	rows := gen.LowRankMatrix(gen.PAMAPLike(8_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Feed(i%8, rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
