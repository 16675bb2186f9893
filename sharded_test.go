package distmat_test

import (
	"errors"
	"reflect"
	"testing"

	distmat "repro"
)

// Facade-level coverage of WithShards: which configurations shard, how a
// sharded session behaves (deterministic replay, persistence, lifecycle),
// and that WithFastIngest reaches the windowed tracker's sub-trackers.

func TestNotShardableConfigurations(t *testing.T) {
	// Only windowed matrix tracking still rejects WithShards: expiry
	// re-ingestion cannot be merged at query time. Heavy-hitter and
	// quantile sessions shard like unwindowed matrix ones.
	if _, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(4), distmat.WithEpsilon(0.1), distmat.WithDim(8),
		distmat.WithWindow(100), distmat.WithShards(2)); !errors.Is(err, distmat.ErrNotShardable) {
		t.Errorf("windowed matrix with shards: err = %v, want ErrNotShardable", err)
	}
	for _, tc := range []struct {
		name string
		make func() (*distmat.Session, error)
	}{
		{"heavy-hitters", func() (*distmat.Session, error) {
			return distmat.NewHHSession("p2",
				distmat.WithSites(4), distmat.WithEpsilon(0.05), distmat.WithShards(2))
		}},
		{"quantile", func() (*distmat.Session, error) {
			return distmat.NewQuantileSession(
				distmat.WithSites(4), distmat.WithEpsilon(0.05), distmat.WithShards(2))
		}},
	} {
		sess, err := tc.make()
		if err != nil {
			t.Errorf("%s with shards: err = %v, want sharded session", tc.name, err)
			continue
		}
		if got := sess.Shards(); got != 2 {
			t.Errorf("%s Shards() = %d, want 2", tc.name, got)
		}
		sess.Close()
	}

	if _, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(4), distmat.WithEpsilon(0.1), distmat.WithDim(8),
		distmat.WithShards(-1)); !errors.Is(err, distmat.ErrInvalidConfig) {
		t.Errorf("negative shards: err = %v, want ErrInvalidConfig", err)
	}
	// The cap guards the service boundary: one Spec cannot allocate an
	// unbounded number of trackers and worker goroutines.
	if _, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(4), distmat.WithEpsilon(0.1), distmat.WithDim(8),
		distmat.WithShards(distmat.MaxShards+1)); !errors.Is(err, distmat.ErrInvalidConfig) {
		t.Errorf("oversized shards: err = %v, want ErrInvalidConfig", err)
	}
}

// TestClosedSessionIngestReturnsError: ingestion after Close follows the
// facade's error convention instead of panicking in the sharded tracker;
// queries keep answering from the final state.
func TestClosedSessionIngestReturnsError(t *testing.T) {
	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(2), distmat.WithEpsilon(0.2), distmat.WithDim(4),
		distmat.WithFastIngest(), distmat.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	if err := sess.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}
	gram := sess.Snapshot().Gram
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessRows(rows); !errors.Is(err, distmat.ErrSessionClosed) {
		t.Errorf("ProcessRows after Close: err = %v, want ErrSessionClosed", err)
	}
	if err := sess.ProcessRowsAt(0, [][]float64{rows[0]}); !errors.Is(err, distmat.ErrSessionClosed) {
		t.Errorf("ProcessRowsAt after Close: err = %v, want ErrSessionClosed", err)
	}
	if got := sess.Snapshot().Gram; !reflect.DeepEqual(got.RawData(), gram.RawData()) {
		t.Error("query after Close diverges from pre-Close state")
	}

	// Item sessions share the convention.
	hsess, err := distmat.NewHHSession("p2", distmat.WithSites(2), distmat.WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	hsess.Close()
	if err := hsess.ProcessItems([]distmat.WeightedItem{{Elem: 1, Weight: 1}}); !errors.Is(err, distmat.ErrSessionClosed) {
		t.Errorf("ProcessItems after Close: err = %v, want ErrSessionClosed", err)
	}
}

// TestShardedSessionDeterministicReplay: a sharded matrix session is
// reproducible for a fixed seed and shard count through the full facade
// path (assigner dealing included), despite its concurrent workers.
func TestShardedSessionDeterministicReplay(t *testing.T) {
	const m, eps, d, p = 4, 0.2, 44, 3
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(3000))
	run := func() distmat.Snapshot {
		sess, err := distmat.NewMatrixSession("p2",
			distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
			distmat.WithSeed(7), distmat.WithFastIngest(), distmat.WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if got := sess.Shards(); got != p {
			t.Fatalf("Shards() = %d, want %d", got, p)
		}
		if err := sess.ProcessRows(rows); err != nil {
			t.Fatal(err)
		}
		return sess.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Gram.RawData(), b.Gram.RawData()) {
		t.Error("sharded session Gram not reproducible for fixed seed and shard count")
	}
	if a.Stats != b.Stats {
		t.Errorf("sharded session tallies not reproducible:\nrun 1: %v\nrun 2: %v", a.Stats, b.Stats)
	}
	if a.Frobenius != b.Frobenius {
		t.Errorf("sharded session F̂ not reproducible: %v vs %v", a.Frobenius, b.Frobenius)
	}
}

// TestShardedSessionPersistRoundTrip: a sharded p2 session checkpoints and
// restores bit-exactly mid-stream and stays on the original's trajectory.
func TestShardedSessionPersistRoundTrip(t *testing.T) {
	const m, eps, d, p = 6, 0.2, 44, 4
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(2000))
	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithSeed(5), distmat.WithFastIngest(), distmat.WithShards(p))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Persistable(); err != nil {
		t.Fatalf("sharded p2 session not persistable: %v", err)
	}
	half := len(rows) / 2
	if err := sess.ProcessRows(rows[:half]); err != nil {
		t.Fatal(err)
	}

	restored := saveRestore(t, sess)
	defer restored.Close()
	if got := restored.Shards(); got != p {
		t.Fatalf("restored Shards() = %d, want %d", got, p)
	}
	if a, b := sess.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a.Gram.RawData(), b.Gram.RawData()) || a.Stats != b.Stats {
		t.Fatal("restored sharded session diverges from saved state")
	}
	if err := sess.ProcessRows(rows[half:]); err != nil {
		t.Fatal(err)
	}
	if err := restored.ProcessRows(rows[half:]); err != nil {
		t.Fatal(err)
	}
	a, b := sess.Snapshot(), restored.Snapshot()
	if !reflect.DeepEqual(a.Gram.RawData(), b.Gram.RawData()) {
		t.Error("post-restore ingestion diverges from the original trajectory")
	}
	if a.Stats != b.Stats {
		t.Errorf("post-restore tallies diverge:\noriginal: %v\nrestored: %v", a.Stats, b.Stats)
	}

	// A wrapped session around a registry-built sharded tracker persists
	// too: the shard count is taken from the tracker, not the (unset)
	// Config echo.
	tr, err := distmat.NewMatrixByName("p2", distmat.NewConfig(
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithShards(2)))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := distmat.WrapMatrixSession(tr, distmat.WithSites(m))
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()
	if err := wrapped.ProcessRows(rows[:200]); err != nil {
		t.Fatal(err)
	}
	rewrapped := saveRestore(t, wrapped)
	defer rewrapped.Close()
	if got := rewrapped.Shards(); got != 2 {
		t.Fatalf("restored wrapped Shards() = %d, want 2", got)
	}
	if a, b := wrapped.Snapshot(), rewrapped.Snapshot(); !reflect.DeepEqual(a.Gram.RawData(), b.Gram.RawData()) {
		t.Fatal("restored wrapped sharded session diverges from saved state")
	}

	// Sharded sessions whose shards have no snapshot support stay
	// non-persistable with a clear error.
	sampled, err := distmat.NewMatrixSession("p3",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sampled.Close()
	if err := sampled.Persistable(); !errors.Is(err, distmat.ErrNotPersistable) {
		t.Errorf("sharded p3 Persistable() = %v, want ErrNotPersistable", err)
	}
}

// TestWindowedFastIngestPlumbing proves WithFastIngest reaches the
// windowed tracker's factory: a windowed+fast session fed explicit-site
// blocks is byte-identical to a hand-built WindowedTracker over fast-mode
// sub-trackers from the registry. (Fast and exact sub-trackers diverge in
// sketch bits and ship coalescing on this stream, so the equality below
// fails if the session silently built exact sub-trackers.)
func TestWindowedFastIngestPlumbing(t *testing.T) {
	const m, eps, d, window = 3, 0.2, 44, 600
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(2500))

	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithWindow(window), distmat.WithFastIngest())
	if err != nil {
		t.Fatal(err)
	}
	cfg := distmat.NewConfig(
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d),
		distmat.WithFastIngest())
	manual := distmat.NewWindowedTracker(window, func() distmat.MatrixTracker {
		tr, err := distmat.NewMatrixByName("p2", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})

	const block = 147 // straddles the 300-row sub-window boundaries
	for start := 0; start < len(rows); start += block {
		end := start + block
		if end > len(rows) {
			end = len(rows)
		}
		site := (start / block) % m
		if err := sess.ProcessRowsAt(site, rows[start:end]); err != nil {
			t.Fatal(err)
		}
		manual.ProcessRows(site, rows[start:end])
	}

	snap := sess.Snapshot()
	if !reflect.DeepEqual(snap.Gram.RawData(), manual.Gram().RawData()) {
		t.Error("windowed+fast session Gram diverges from hand-built fast windowed tracker: FastIngest not plumbed through the factory")
	}
	if snap.Stats != manual.Stats() {
		t.Errorf("windowed+fast session tallies diverge:\nsession: %v\nmanual:  %v", snap.Stats, manual.Stats())
	}
	if got, want := sess.Covered(), int64(manual.Covered()); got != want {
		t.Errorf("windowed+fast session covers %d rows, manual covers %d", got, want)
	}
}

// TestShardedSessionCoalescesRuns: an assigner-dealt batch on a sharded
// session regroups into one run per site before dealing, so shard workers
// see whole blocks instead of the ~length-1 runs a round-robin assigner
// yields. Each run goes to the shard that owns its site: with 6 sites, 4
// shards and 60 rows, sites 0 and 4 feed shard 0, sites 1 and 5 shard 1,
// and sites 2 and 3 shards 2 and 3 — 10 rows a site. The coalesced batch
// must leave the tracker exactly as the six 10-row runs fed one by one
// through ProcessRowsAt do; 60 single-row blocks would not.
func TestShardedSessionCoalescesRuns(t *testing.T) {
	const sites, shards, n = 6, 4, 60
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(n))
	build := func() *distmat.Session {
		sess, err := distmat.NewMatrixSession("p2",
			distmat.WithSites(sites), distmat.WithEpsilon(0.2), distmat.WithDim(44),
			distmat.WithSeed(1), distmat.WithFastIngest(), distmat.WithShards(shards),
			distmat.WithAssigner(distmat.NewRoundRobin(sites)))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sess, runs := build(), build()
	defer sess.Close()
	defer runs.Close()
	if err := sess.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}
	got := sess.ShardRows()
	want := []int64{20, 20, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ShardRows after a coalesced 60-row batch = %v, want %v (each site's run on its shard)", got, want)
	}
	for site := 0; site < sites; site++ {
		var run [][]float64
		for i := site; i < n; i += sites {
			run = append(run, rows[i])
		}
		if err := runs.ProcessRowsAt(site, run); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sess.Snapshot(), runs.Snapshot()
	if !reflect.DeepEqual(a.Gram.RawData(), b.Gram.RawData()) || a.Stats != b.Stats {
		t.Error("a coalesced batch diverges from the same per-site runs fed one by one")
	}
}

// TestUnshardedBatchKeepsPerRowIdentity: coalescing must NOT touch
// unsharded sessions, whose batch path is documented (and tested) to be
// bit-identical to per-row ingestion — run splitting there stays
// consecutive so the tracker sees the same site sequence.
func TestUnshardedBatchKeepsPerRowIdentity(t *testing.T) {
	const sites = 3
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(120))
	build := func() *distmat.Session {
		sess, err := distmat.NewMatrixSession("p2",
			distmat.WithSites(sites), distmat.WithEpsilon(0.2), distmat.WithDim(44),
			distmat.WithSeed(3), distmat.WithFastIngest(),
			distmat.WithAssigner(distmat.NewRoundRobin(sites)))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	batch, perRow := build(), build()
	defer batch.Close()
	defer perRow.Close()
	if err := batch.ProcessRows(rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := perRow.ProcessRow(row); err != nil {
			t.Fatal(err)
		}
	}
	a, b := batch.Snapshot(), perRow.Snapshot()
	if !reflect.DeepEqual(a.Gram.RawData(), b.Gram.RawData()) {
		t.Error("unsharded batch ingest diverged from per-row ingest")
	}
	if a.Stats != b.Stats {
		t.Errorf("unsharded batch tallies diverged: %v vs %v", a.Stats, b.Stats)
	}
}
