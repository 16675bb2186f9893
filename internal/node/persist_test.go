package node

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hh"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/quantile"
)

// TestHHCheckpointResume snapshots a live heavy-hitters cluster midstream,
// gob round-trips every node, resumes on restored nodes, and verifies the
// final guarantee is indistinguishable from an uninterrupted run.
func TestHHCheckpointResume(t *testing.T) {
	const m, eps = 4, 0.05
	cfg := gen.DefaultZipfConfig(30_000)
	cfg.Beta = 20
	items := gen.ZipfStream(cfg)
	half := len(items) / 2

	cl, err := NewLocalHHCluster(m, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items[:half] {
		if err := cl.Feed(i%m, it.Elem, it.Weight); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint everything through gob.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cl.Coordinator.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, s := range cl.Sites {
		if err := gob.NewEncoder(&buf).Encode(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": rebuild a cluster from the snapshots.
	var csnap HHCoordinatorSnapshot
	if err := gob.NewDecoder(&buf).Decode(&csnap); err != nil {
		t.Fatal(err)
	}
	fo := &fanout{}
	coord, err := RestoreHHCoordinator(csnap, fo)
	if err != nil {
		t.Fatal(err)
	}
	restored := &LocalHHCluster{Coordinator: coord}
	for i := 0; i < m; i++ {
		var ssnap HHSiteSnapshot
		if err := gob.NewDecoder(&buf).Decode(&ssnap); err != nil {
			t.Fatal(err)
		}
		site, err := RestoreHHSite(ssnap, SenderFunc(coord.Handle))
		if err != nil {
			t.Fatal(err)
		}
		restored.Sites = append(restored.Sites, site)
		fo.sites = append(fo.sites, site)
	}

	// Resume with the second half.
	for i, it := range items[half:] {
		if err := restored.Feed((half+i)%m, it.Elem, it.Weight); err != nil {
			t.Fatal(err)
		}
	}

	exact := gen.ExactFrequencies(items)
	w := gen.TotalWeight(items)
	for e, fe := range exact {
		if got := restored.Coordinator.Estimate(e); math.Abs(got-fe) > 2*eps*w {
			t.Fatalf("element %d after resume: |%v − %v| > 2εW", e, got, fe)
		}
	}
	if got := restored.Coordinator.EstimateTotal(); math.Abs(got-w) > 2*eps*w {
		t.Fatalf("total after resume: %v vs %v", got, w)
	}
}

// TestMatCheckpointResume does the same for the matrix cluster.
func TestMatCheckpointResume(t *testing.T) {
	const m, eps, d = 3, 0.2, 44
	rows := gen.LowRankMatrix(gen.PAMAPLike(2400))
	half := len(rows) / 2

	cl, err := NewLocalMatCluster(m, eps, d)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows[:half] {
		if err := cl.Feed(i%m, r); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cl.Coordinator.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, s := range cl.Sites {
		if err := gob.NewEncoder(&buf).Encode(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}

	var csnap MatCoordinatorSnapshot
	if err := gob.NewDecoder(&buf).Decode(&csnap); err != nil {
		t.Fatal(err)
	}
	fo := &fanout{}
	coord, err := RestoreMatCoordinator(csnap, fo)
	if err != nil {
		t.Fatal(err)
	}
	restored := &LocalMatCluster{Coordinator: coord}
	for i := 0; i < m; i++ {
		var ssnap MatSiteSnapshot
		if err := gob.NewDecoder(&buf).Decode(&ssnap); err != nil {
			t.Fatal(err)
		}
		site, err := RestoreMatSite(ssnap, SenderFunc(coord.Handle))
		if err != nil {
			t.Fatal(err)
		}
		restored.Sites = append(restored.Sites, site)
		fo.sites = append(fo.sites, site)
	}

	for i, r := range rows[half:] {
		if err := restored.Feed((half+i)%m, r); err != nil {
			t.Fatal(err)
		}
	}

	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	e, err := metrics.CovarianceError(exact, restored.Coordinator.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if e > eps {
		t.Fatalf("error %v after checkpoint/resume exceeds ε=%v", e, eps)
	}
}

func TestSnapshotPreservesCounters(t *testing.T) {
	cl, _ := NewLocalHHCluster(2, 0.1)
	for i := 0; i < 500; i++ {
		cl.Feed(i%2, uint64(i%7), 1+float64(i%3))
	}
	snap := cl.Coordinator.Snapshot()
	coord, err := RestoreHHCoordinator(snap, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if coord.Received() != cl.Coordinator.Received() || coord.Broadcasts() != cl.Coordinator.Broadcasts() {
		t.Fatal("observability counters lost in snapshot")
	}
	sSnap := cl.Sites[0].Snapshot()
	site, err := RestoreHHSite(sSnap, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if site.Sent() != cl.Sites[0].Sent() || site.Estimate() != cl.Sites[0].Estimate() {
		t.Fatal("site state lost in snapshot")
	}
}

func TestRestoreValidation(t *testing.T) {
	drop := SenderFunc(func(Message) error { return nil })
	if _, err := RestoreMatSite(MatSiteSnapshot{ID: 0, M: 2, D: 3, Eps: 0.1, Half: core.P2SiteSnapshot{Gram: []float64{1}}}, drop); err == nil {
		t.Fatal("expected Gram size error")
	}
	if _, err := RestoreMatCoordinator(MatCoordinatorSnapshot{M: 2, D: 3, Eps: 0.1, Half: core.P2CoordinatorSnapshot{Gram: []float64{1}}}, drop); err == nil {
		t.Fatal("expected Gram size error")
	}
	if _, err := RestoreHHSite(HHSiteSnapshot{ID: 9, M: 2, Eps: 0.1}, drop); err == nil {
		t.Fatal("expected id range error")
	}
}

// TestEstimateHistoryPersists checks that the broadcast-estimate history
// survives a coordinator snapshot round-trip through gob.
func TestEstimateHistoryPersists(t *testing.T) {
	cl, _ := NewLocalHHCluster(2, 0.1)
	for i := 0; i < 2_000; i++ {
		if err := cl.Feed(i%2, uint64(i%11), 1+float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	hist := cl.Coordinator.EstimateHistory()
	if len(hist) == 0 {
		t.Fatal("no broadcasts recorded")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] < hist[i-1] {
			t.Fatalf("history not nondecreasing at %d: %v < %v", i, hist[i], hist[i-1])
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cl.Coordinator.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap HHCoordinatorSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	coord, err := RestoreHHCoordinator(snap, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	got := coord.EstimateHistory()
	if len(got) != len(hist) {
		t.Fatalf("history length %d after restore, want %d", len(got), len(hist))
	}
	for i := range got {
		if got[i] != hist[i] {
			t.Fatalf("history[%d] = %v after restore, want %v", i, got[i], hist[i])
		}
	}
}

// The simulator round-trips below are what internal/service's checkpointer
// relies on: snapshot → gob encode → decode → restore → identical query
// answers, for heavy hitters, matrix, and quantile trackers alike.

// TestHHSimulatorSnapshotRoundTrip gob round-trips an hh.P2 snapshot and
// checks query answers are identical.
func TestHHSimulatorSnapshotRoundTrip(t *testing.T) {
	p := hh.NewP2(4, 0.05)
	cfg := gen.DefaultZipfConfig(20_000)
	items := gen.ZipfStream(cfg)
	for i, it := range items {
		p.Process(i%4, it.Elem, it.Weight)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded hh.P2Snapshot
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	q, err := hh.RestoreP2(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if q.EstimateTotal() != p.EstimateTotal() {
		t.Fatalf("total %v after restore, want %v", q.EstimateTotal(), p.EstimateTotal())
	}
	if q.Stats() != p.Stats() {
		t.Fatalf("stats %v after restore, want %v", q.Stats(), p.Stats())
	}
	want := hh.HeavyHitters(p, 0.02)
	got := hh.HeavyHitters(q, 0.02)
	if len(got) != len(want) {
		t.Fatalf("%d heavy hitters after restore, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("heavy hitter %d = %+v after restore, want %+v", i, got[i], want[i])
		}
	}
}

// TestMatSimulatorSnapshotRoundTrip gob round-trips a core.P2 snapshot and
// checks the coordinator estimate is identical.
func TestMatSimulatorSnapshotRoundTrip(t *testing.T) {
	const m, eps, d = 3, 0.2, 44
	p := core.NewP2(m, eps, d)
	rows := gen.LowRankMatrix(gen.PAMAPLike(1_500))
	for i, r := range rows {
		p.ProcessRow(i%m, r)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded core.P2Snapshot
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	q, err := core.RestoreP2(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if q.EstimateFrobenius() != p.EstimateFrobenius() {
		t.Fatalf("F̂ %v after restore, want %v", q.EstimateFrobenius(), p.EstimateFrobenius())
	}
	if q.Stats() != p.Stats() {
		t.Fatalf("stats %v after restore, want %v", q.Stats(), p.Stats())
	}
	if !q.Gram().Dense().Equal(p.Gram().Dense(), 0) {
		t.Fatal("Gram estimate differs after restore")
	}
}

// TestQuantileSnapshotRoundTrip gob round-trips the newly-persistable
// quantile tracker and checks quantile answers are identical, then resumes
// ingestion on the restored tracker to confirm the guarantee survives.
func TestQuantileSnapshotRoundTrip(t *testing.T) {
	const m, eps, bits = 4, 0.05, 12
	tr := quantile.NewTracker(m, eps, bits)
	for i := 0; i < 30_000; i++ {
		tr.Process(i%m, uint64(i%(1<<bits)), 1+float64(i%3))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded quantile.TrackerSnapshot
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := quantile.RestoreTracker(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.EstimateTotal() != tr.EstimateTotal() {
		t.Fatalf("total %v after restore, want %v", restored.EstimateTotal(), tr.EstimateTotal())
	}
	if restored.Stats() != tr.Stats() {
		t.Fatalf("stats %v after restore, want %v", restored.Stats(), tr.Stats())
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := restored.Quantile(phi), tr.Quantile(phi); got != want {
			t.Fatalf("quantile(%v) = %d after restore, want %d", phi, got, want)
		}
	}
	// Resume both and confirm they stay in lockstep.
	for i := 0; i < 10_000; i++ {
		v, w := uint64((7*i)%(1<<bits)), 1+float64(i%2)
		tr.Process(i%m, v, w)
		restored.Process(i%m, v, w)
	}
	for _, phi := range []float64{0.1, 0.5, 0.95} {
		if got, want := restored.Quantile(phi), tr.Quantile(phi); got != want {
			t.Fatalf("quantile(%v) = %d after resume, want %d", phi, got, want)
		}
	}
}
