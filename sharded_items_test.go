package distmat_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	distmat "repro"
)

// Facade-level coverage of item sharding (WithShards on heavy-hitters and
// quantile sessions) and the batch-ingest atomicity contract the items
// path shares with it.

// TestItemBatchAtomicity pins the atomicity bugfix: a rejected item batch —
// bad item mid-batch (non-positive, NaN or +Inf weight: NaN passes a plain
// w ≤ 0 test and would poison Ŵ for good) or bad explicit site — leaves the
// session, unsharded or WithShards(4), exactly as it was. The snapshot must match field for field, and a clean batch fed
// afterwards must land exactly where a twin session that never saw the bad
// batch puts it, proving not even assigner draws escaped the rejected
// call.
func TestItemBatchAtomicity(t *testing.T) {
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(4000))
	build := func(kind string, shards int) *distmat.Session {
		t.Helper()
		var sess *distmat.Session
		var err error
		switch kind {
		case "heavy-hitters":
			sess, err = distmat.NewHHSession("p2", distmat.WithShards(shards),
				distmat.WithSites(4), distmat.WithEpsilon(0.05), distmat.WithSeed(9))
		case "quantile":
			sess, err = distmat.NewQuantileSession(distmat.WithShards(shards),
				distmat.WithSites(4), distmat.WithEpsilon(0.05), distmat.WithBits(20), distmat.WithSeed(9))
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}
	for _, kind := range []string{"heavy-hitters", "quantile", "heavy-hitters/4 shards", "quantile/4 shards"} {
		shards := 0
		if base, sharded := strings.CutSuffix(kind, "/4 shards"); sharded {
			kind, shards = base, 4
		}
		sess, twin := build(kind, shards), build(kind, shards)
		half := len(items) / 2
		if err := sess.ProcessItems(items[:half]); err != nil {
			t.Fatal(err)
		}
		if err := twin.ProcessItems(items[:half]); err != nil {
			t.Fatal(err)
		}
		before := sess.Snapshot()

		for _, w := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
			bad := []distmat.WeightedItem{
				{Elem: 1, Weight: 1},
				{Elem: 2, Weight: w}, // invalid weight mid-batch
				{Elem: 3, Weight: 1},
			}
			err := sess.ProcessItems(bad)
			if !errors.Is(err, distmat.ErrInvalidItem) {
				t.Fatalf("%s: weight %v mid-batch: err = %v, want ErrInvalidItem", kind, w, err)
			}
			if !strings.HasPrefix(err.Error(), "item 1:") {
				t.Errorf("%s: bad batch err = %q, want the offending index prefix", kind, err)
			}
			if err := sess.ProcessItemsAt(0, bad); !errors.Is(err, distmat.ErrInvalidItem) {
				t.Fatalf("%s: weight %v mid-batch at a site: err = %v, want ErrInvalidItem", kind, w, err)
			}
		}
		if err := sess.ProcessItemsAt(7, items[:3]); !errors.Is(err, distmat.ErrInvalidSite) {
			t.Fatalf("%s: bad site err = %v, want ErrInvalidSite", kind, err)
		}
		if kind == "quantile" {
			tooBig := []distmat.WeightedItem{{Elem: 1, Weight: 1}, {Elem: 1 << 20, Weight: 1}}
			if err := sess.ProcessItems(tooBig); !errors.Is(err, distmat.ErrInvalidItem) {
				t.Fatalf("out-of-universe err = %v, want ErrInvalidItem", err)
			}
		}
		if got := sess.Snapshot(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: rejected batches changed the session:\nbefore: %+v\nafter:  %+v", kind, before, got)
		}
		if got, want := sess.Count(), int64(half); got != want {
			t.Fatalf("%s: Count() = %d after rejected batches, want %d", kind, got, want)
		}

		// The twin never saw the rejected batches; identical continued
		// ingestion must keep both in lockstep (same assigner positions).
		if err := sess.ProcessItems(items[half:]); err != nil {
			t.Fatal(err)
		}
		if err := twin.ProcessItems(items[half:]); err != nil {
			t.Fatal(err)
		}
		if a, b := sess.Snapshot(), twin.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: session diverged from its twin after rejected batches: the rejected call leaked state", kind)
		}
	}

	// Empty batches are a no-op even on a session whose kind would reject
	// the call's other arguments later.
	sess := build("heavy-hitters", 0)
	if err := sess.ProcessItems(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestShardedItemSessionQueries covers the sharded session query surface
// end to end for both item kinds: heavy-hitter and quantile answers stay
// within the εW contract of unsharded twins, Shards/ShardRows report the
// fleet, and Quantiles() documents its nil for sharded sessions.
func TestShardedItemSessionQueries(t *testing.T) {
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(30000))

	hsess, err := distmat.NewHHSession("p2",
		distmat.WithSites(5), distmat.WithEpsilon(0.02), distmat.WithSeed(3),
		distmat.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer hsess.Close()
	if got := hsess.Shards(); got != 3 {
		t.Fatalf("hh Shards() = %d, want 3", got)
	}
	if err := hsess.ProcessItems(items); err != nil {
		t.Fatal(err)
	}
	var dealt int64
	for _, n := range hsess.ShardRows() {
		dealt += n
	}
	if dealt != int64(len(items)) {
		t.Fatalf("hh ShardRows sums to %d, want %d", dealt, len(items))
	}
	exact := distmat.NewHHExact(5)
	runHH(t, exact, items, distmat.NewUniformRandom(5, 3))
	truth := exact.TrueHeavyHitters(0.05)
	returned, err := hsess.HeavyHitters(0.05)
	if err != nil {
		t.Fatal(err)
	}
	res := distmat.EvaluateHH(returned, truth, hsess.HH().Estimate)
	if res.Recall < 1 {
		t.Fatalf("sharded hh session recall %v, want 1 (the merged bound guarantees it)", res.Recall)
	}

	qsess, err := distmat.NewQuantileSession(
		distmat.WithSites(4), distmat.WithEpsilon(0.1), distmat.WithBits(16),
		distmat.WithSeed(3), distmat.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer qsess.Close()
	if qsess.Quantiles() != nil {
		t.Error("Quantiles() != nil on a sharded session; state lives in the shards")
	}
	// A spread-out stream: Zipf's dominant atom would make any single value
	// straddle the median, so rank checks need mass spread across the
	// universe.
	qitems := make([]distmat.WeightedItem, len(items))
	var w float64
	for i := range qitems {
		qitems[i] = distmat.WeightedItem{Elem: uint64(i*31) % (1 << 16), Weight: 1 + float64(i%4)}
		w += qitems[i].Weight
	}
	if err := qsess.ProcessItems(qitems); err != nil {
		t.Fatal(err)
	}
	med, err := qsess.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	var rank float64
	for _, it := range qitems {
		if it.Elem <= med {
			rank += it.Weight
		}
	}
	if rank < (0.5-0.1)*w || rank > (0.5+0.1)*w {
		t.Fatalf("sharded median %d has rank %v, want within εW of %v", med, rank, 0.5*w)
	}
}

// TestShardedItemSessionDeterministicReplay: sharded item sessions are
// reproducible for a fixed (seed, P) through the full facade path,
// assigner dealing and run coalescing included.
func TestShardedItemSessionDeterministicReplay(t *testing.T) {
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(12000))
	run := func() distmat.Snapshot {
		sess, err := distmat.NewHHSession("p2",
			distmat.WithSites(4), distmat.WithEpsilon(0.05), distmat.WithSeed(7),
			distmat.WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if err := sess.ProcessItems(items); err != nil {
			t.Fatal(err)
		}
		return sess.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("sharded hh session not reproducible for fixed seed and shard count")
	}
}

// TestShardedItemSessionCoalescesRuns mirrors the rows-path coalescing pin:
// a round-robin-dealt batch on a sharded item session regroups into one run
// per site, each on the shard that owns the site — with 6 sites, 4 shards
// and 60 items, 10 items a site, sites 0 and 4 on shard 0 and sites 1 and 5
// on shard 1 — and leaves the tracker as the same runs fed one by one do.
func TestShardedItemSessionCoalescesRuns(t *testing.T) {
	const sites, shards, n = 6, 4, 60
	items := make([]distmat.WeightedItem, n)
	for i := range items {
		items[i] = distmat.WeightedItem{Elem: uint64(i % 7), Weight: 1}
	}
	build := func() *distmat.Session {
		sess, err := distmat.NewHHSession("p2",
			distmat.WithSites(sites), distmat.WithEpsilon(0.1), distmat.WithShards(shards),
			distmat.WithAssigner(distmat.NewRoundRobin(sites)))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sess, runs := build(), build()
	defer sess.Close()
	defer runs.Close()
	if err := sess.ProcessItems(items); err != nil {
		t.Fatal(err)
	}
	got := sess.ShardRows()
	want := []int64{20, 20, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ShardRows after a coalesced 60-item batch = %v, want %v (each site's run on its shard)", got, want)
	}
	for site := 0; site < sites; site++ {
		var run []distmat.WeightedItem
		for i := site; i < n; i += sites {
			run = append(run, items[i])
		}
		if err := runs.ProcessItemsAt(site, run); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sess.Snapshot(), runs.Snapshot()
	if !reflect.DeepEqual(a.Estimates, b.Estimates) || a.Stats != b.Stats {
		t.Error("a coalesced batch diverges from the same per-site runs fed one by one")
	}
}

// TestShardedItemSessionPersistRoundTrip: sharded p2, exact, and quantile
// sessions checkpoint and restore mid-stream and stay on the original's
// trajectory; sharded sessions over non-snapshotable shards report
// ErrNotPersistable.
func TestShardedItemSessionPersistRoundTrip(t *testing.T) {
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(10000))
	qitems := make([]distmat.WeightedItem, len(items))
	for i, it := range items {
		qitems[i] = distmat.WeightedItem{Elem: it.Elem % (1 << 12), Weight: it.Weight}
	}
	builders := map[string]func() (*distmat.Session, error){
		"hh-p2": func() (*distmat.Session, error) {
			return distmat.NewHHSession("p2",
				distmat.WithSites(3), distmat.WithEpsilon(0.05), distmat.WithSeed(5),
				distmat.WithShards(3))
		},
		"hh-exact": func() (*distmat.Session, error) {
			return distmat.NewHHSession("exact",
				distmat.WithSites(3), distmat.WithSeed(5), distmat.WithShards(2))
		},
		"quantile": func() (*distmat.Session, error) {
			return distmat.NewQuantileSession(
				distmat.WithSites(3), distmat.WithEpsilon(0.1), distmat.WithBits(12),
				distmat.WithSeed(5), distmat.WithShards(4))
		},
	}
	for name, mk := range builders {
		feed := items
		if name == "quantile" {
			feed = qitems
		}
		sess, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Persistable(); err != nil {
			t.Fatalf("%s: not persistable: %v", name, err)
		}
		half := len(feed) / 2
		if err := sess.ProcessItems(feed[:half]); err != nil {
			t.Fatal(err)
		}
		restored := saveRestore(t, sess)
		if got, want := restored.Shards(), sess.Shards(); got != want {
			t.Fatalf("%s: restored Shards() = %d, want %d", name, got, want)
		}
		if a, b := sess.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: restored session diverges from saved state", name)
		}
		if err := sess.ProcessItems(feed[half:]); err != nil {
			t.Fatal(err)
		}
		if err := restored.ProcessItems(feed[half:]); err != nil {
			t.Fatal(err)
		}
		if a, b := sess.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: post-restore ingestion diverges from the original trajectory", name)
		}
		if name == "quantile" {
			qa, err := sess.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			qb, err := restored.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if qa != qb {
				t.Fatalf("restored sharded median %d, want %d", qb, qa)
			}
		}
		sess.Close()
		restored.Close()
	}

	// Randomized shards stay non-persistable with the typed error.
	sampled, err := distmat.NewHHSession("p3",
		distmat.WithSites(3), distmat.WithEpsilon(0.1), distmat.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sampled.Close()
	if err := sampled.Persistable(); !errors.Is(err, distmat.ErrNotPersistable) {
		t.Errorf("sharded p3 Persistable() = %v, want ErrNotPersistable", err)
	}
}

// TestWrappedShardedHHSession: a session wrapped around a registry-built
// sharded protocol echoes the shard count from the protocol, not the
// (unset) config, and closes its workers.
func TestWrappedShardedHHSession(t *testing.T) {
	p, err := distmat.NewHHByName("p2", distmat.NewConfig(
		distmat.WithSites(2), distmat.WithEpsilon(0.1), distmat.WithShards(2)))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := distmat.WrapHHSession(p, distmat.WithSites(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Shards(); got != 2 {
		t.Fatalf("wrapped Shards() = %d, want 2", got)
	}
	if err := sess.ProcessItems([]distmat.WeightedItem{{Elem: 1, Weight: 2}, {Elem: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if est := sess.HH().Estimate(1); est <= 0 {
		t.Fatalf("wrapped sharded Estimate(1) = %v", est)
	}
}

// TestClosedShardedItemSessionReturnsError: ingestion after Close follows
// the facade's error convention instead of panicking in the sharded item
// tracker; queries keep answering from the final merged state.
func TestClosedShardedItemSessionReturnsError(t *testing.T) {
	sess, err := distmat.NewHHSession("p2",
		distmat.WithSites(2), distmat.WithEpsilon(0.1), distmat.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	items := []distmat.WeightedItem{{Elem: 1, Weight: 5}, {Elem: 2, Weight: 1}}
	if err := sess.ProcessItems(items); err != nil {
		t.Fatal(err)
	}
	total := sess.Snapshot().Total
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.ProcessItems(items); !errors.Is(err, distmat.ErrSessionClosed) {
		t.Errorf("ProcessItems after Close: err = %v, want ErrSessionClosed", err)
	}
	if err := sess.ProcessItemsAt(0, items); !errors.Is(err, distmat.ErrSessionClosed) {
		t.Errorf("ProcessItemsAt after Close: err = %v, want ErrSessionClosed", err)
	}
	if got := sess.Snapshot().Total; got != total {
		t.Errorf("query after Close diverges: total %v, want %v", got, total)
	}
}
