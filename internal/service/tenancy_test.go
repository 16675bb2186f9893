package service_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	distmat "repro"
	"repro/internal/service"
)

// soakSpec builds the i-th deterministic tracker spec, cycling through
// the three kinds with a fixed seed so a twin created elsewhere is
// bit-identical.
func soakSpec(i int) service.Spec {
	seed := int64(1000 + i)
	switch i % 3 {
	case 0:
		return service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: 3, Dim: 6, Epsilon: 0.2, Seed: seed}
	case 1:
		return service.Spec{Kind: service.KindHH, Protocol: "p2", Sites: 3, Epsilon: 0.05, Seed: seed}
	default:
		return service.Spec{Kind: service.KindQuantile, Sites: 3, Epsilon: 0.1, Bits: 10, Seed: seed}
	}
}

// soakFeed ingests batch b of tracker i into tr — the same deterministic
// payload every time it is called with the same (i, b).
func soakFeed(tr *service.Tracker, i, b int) error {
	ctx := context.Background()
	site := b % 3
	if i%3 == 0 {
		rows := make([][]float64, 8)
		for r := range rows {
			rows[r] = make([]float64, 6)
			for c := range rows[r] {
				rows[r][c] = float64((i+1)*(b+1)*(r+1)+c)/32 - 3
			}
		}
		return tr.IngestRows(ctx, site, rows)
	}
	items := make([]distmat.WeightedItem, 12)
	for k := range items {
		seq := (b*12 + k) * (i + 1)
		items[k] = distmat.WeightedItem{
			Elem:   uint64(seq*37) % (1 << 10),
			Weight: 1 + float64(seq%4),
		}
	}
	return tr.IngestItems(ctx, site, items)
}

// TestHibernationSoakBitIdentical is the hibernation acceptance test: a
// WAL-enabled manager capped at MaxResident=4 hosts 18 trackers hammered
// by concurrent feeders, so sessions churn through checkpoint → evict →
// fault-in cycles throughout the run. Every tracker is fed
// in lockstep with a twin on an uncapped oracle manager, and at the end
// each faulted-in tracker's serialized state must be bit-identical
// (distmat.StateEqual) to its never-hibernated oracle.
func TestHibernationSoakBitIdentical(t *testing.T) {
	const (
		trackers = 18
		batches  = 10
		maxRes   = 4
	)
	mgr, err := service.Open(service.Options{
		DataDir:     filepath.Join(t.TempDir(), "data"),
		WAL:         true,
		MaxResident: maxRes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	oracle, err := service.Open(service.Options{
		DataDir: filepath.Join(t.TempDir(), "oracle"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	names := make([]string, trackers)
	for i := range names {
		names[i] = fmt.Sprintf("tr%02d", i)
		if _, err := mgr.Create(names[i], soakSpec(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Create(names[i], soakSpec(i)); err != nil {
			t.Fatal(err)
		}
	}

	// One feeder per tracker: identical batches, identical order, to the
	// capped tracker and its oracle twin. 18 interleaved feeders against a
	// cap of 4 force constant hibernation churn.
	errs := make(chan error, trackers)
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := mgr.Get(names[i])
			if err != nil {
				errs <- err
				return
			}
			tw, err := oracle.Get(names[i])
			if err != nil {
				errs <- err
				return
			}
			for b := 0; b < batches; b++ {
				if err := soakFeed(tr, i, b); err != nil {
					errs <- fmt.Errorf("%s batch %d: %w", names[i], b, err)
					return
				}
				if err := soakFeed(tw, i, b); err != nil {
					errs <- fmt.Errorf("oracle %s batch %d: %w", names[i], b, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	ten := mgr.Metrics().Tenancy
	if ten.Evictions == 0 || ten.Faults == 0 {
		t.Fatalf("soak produced no hibernation churn: %+v", ten)
	}
	t.Logf("tenancy after soak: %d evictions, %d faults, %d/%d resident",
		ten.Evictions, ten.Faults, ten.Resident, ten.Trackers)

	for i, name := range names {
		tr, err := mgr.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := oracle.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := distmat.StateEqual(service.StateBytes(t, tr), service.StateBytes(t, tw))
		if err != nil {
			t.Fatalf("%s: StateEqual: %v", name, err)
		}
		if !eq {
			t.Fatalf("%s (kind %s): state diverges from never-hibernated oracle",
				name, soakSpec(i).Kind)
		}
	}
}

// TestResidentCapBoundsGoroutines is the tenancy scaling acceptance
// test: a manager capped at MaxResident=8 hosts 1000 trackers and ingests
// into 20 of them without starting a goroutine — neither trackers nor the
// manager own one for ingest — and evicted sessions hold no
// memory-resident state beyond the stub.
func TestResidentCapBoundsGoroutines(t *testing.T) {
	const (
		trackers = 1000
		maxRes   = 8
	)
	mgr, err := service.Open(service.Options{
		DataDir:     filepath.Join(t.TempDir(), "data"),
		MaxResident: maxRes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < trackers; i++ {
		spec := service.Spec{Kind: service.KindHH, Sites: 2, Epsilon: 0.1, Seed: int64(i + 1)}
		if _, err := mgr.Create(fmt.Sprintf("t%04d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a spread of hibernated trackers so ingest faults sessions back
	// in and re-evicts others.
	ctx := context.Background()
	for i := 0; i < trackers; i += 50 {
		tr, err := mgr.Get(fmt.Sprintf("t%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		items := []distmat.WeightedItem{{Elem: uint64(i), Weight: 2}, {Elem: 7, Weight: 1}}
		if err := tr.IngestItems(ctx, i%2, items); err != nil {
			t.Fatalf("ingest into %s: %v", tr.Name(), err)
		}
	}

	// Slack for the runtime's own goroutines only.
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d hosting %d trackers; want no growth",
			before, after, trackers)
	}
	t.Logf("goroutines: %d before, %d after %d trackers", before, runtime.NumGoroutine(), trackers)

	// The enforcement sweep ran on the ingesting goroutine before
	// IngestItems returned.
	ten := mgr.Metrics().Tenancy
	if ten.Resident > maxRes {
		t.Fatalf("resident %d exceeds MaxResident %d", ten.Resident, maxRes)
	}
	if ten.Trackers != trackers || ten.Hibernated != int64(trackers)-ten.Resident {
		t.Fatalf("tenancy accounting off: %+v", ten)
	}
	if ten.Evictions < trackers-maxRes {
		t.Fatalf("only %d evictions hosting %d trackers under cap %d", ten.Evictions, trackers, maxRes)
	}
	if ten.Faults < trackers/50-maxRes {
		t.Fatalf("only %d faults after touching %d hibernated trackers", ten.Faults, trackers/50)
	}

	// A hibernated tracker still answers queries — by faulting back in.
	tr, err := mgr.Get("t0000")
	if err != nil {
		t.Fatal(err)
	}
	hits, snap, err := tr.QueryHeavyHitters(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 2 || len(hits) == 0 {
		t.Fatalf("faulted-in query: %d hits, count %d", len(hits), snap.Count)
	}
}

// TestResidentCapBoundsShardedGoroutines: a sharded tracker runs
// min(P, GOMAXPROCS) workers, so R resident 8-shard trackers hold at most
// R·min(8, GOMAXPROCS) goroutines however their sessions fault in and out.
// GOMAXPROCS is pinned at 2, below the shard count, on any host.
func TestResidentCapBoundsShardedGoroutines(t *testing.T) {
	const (
		trackers = 40
		maxRes   = 4
		procs    = 2
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	mgr, err := service.Open(service.Options{
		DataDir:     filepath.Join(t.TempDir(), "data"),
		MaxResident: maxRes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	before := runtime.NumGoroutine()
	ctx := context.Background()
	for i := 0; i < trackers; i++ {
		spec := service.Spec{Kind: service.KindHH, Protocol: "p2", Sites: 8, Shards: 8, Epsilon: 0.1, Seed: int64(i + 1)}
		if _, err := mgr.Create(fmt.Sprintf("s%02d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	// Touch every tracker twice, in two orders, so sessions fault in and
	// evict others.
	for round := 0; round < 2; round++ {
		for i := 0; i < trackers; i++ {
			j := i
			if round == 1 {
				j = (i * 7) % trackers
			}
			tr, err := mgr.Get(fmt.Sprintf("s%02d", j))
			if err != nil {
				t.Fatal(err)
			}
			items := []distmat.WeightedItem{{Elem: uint64(j), Weight: 2}, {Elem: 7, Weight: 1}}
			if err := tr.IngestItems(ctx, j%8, items); err != nil {
				t.Fatalf("ingest into %s: %v", tr.Name(), err)
			}
		}
	}
	if ten := mgr.Metrics().Tenancy; ten.Faults == 0 || ten.Resident > maxRes {
		t.Fatalf("want faults under the cap: %+v", ten)
	}
	limit := before + maxRes*min(8, procs) + 2
	if after := runtime.NumGoroutine(); after > limit {
		t.Fatalf("goroutines grew from %d to %d with %d resident 8-shard trackers; want at most %d",
			before, after, maxRes, limit)
	}
	t.Logf("goroutines: %d before, %d after; limit %d", before, runtime.NumGoroutine(), limit)
}

// TestHibernatedMetricsDoNotFaultIn pins the monitoring contract: a
// /metrics scrape reports hibernated trackers from their stub caches and
// never restores sessions.
func TestHibernatedMetricsDoNotFaultIn(t *testing.T) {
	mgr, err := service.Open(service.Options{
		DataDir:     filepath.Join(t.TempDir(), "data"),
		MaxResident: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		tr, err := mgr.Create(fmt.Sprintf("q%d", i), service.Spec{
			Kind: service.KindQuantile, Sites: 2, Epsilon: 0.1, Bits: 8, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		items := []distmat.WeightedItem{{Elem: uint64(10 * i), Weight: 1}}
		if err := tr.IngestItems(ctx, 0, items); err != nil {
			t.Fatal(err)
		}
	}
	m1 := mgr.Metrics()
	if m1.Tenancy.Hibernated == 0 {
		t.Fatalf("no hibernated trackers with 8 trackers under cap 2: %+v", m1.Tenancy)
	}
	faults := m1.Tenancy.Faults
	m2 := mgr.Metrics()
	if m2.Tenancy.Faults != faults {
		t.Fatalf("a metrics scrape faulted sessions in: %d -> %d faults", faults, m2.Tenancy.Faults)
	}
	// Hibernated rows still carry their cached counters.
	for name, tm := range m2.Trackers {
		if tm.Count == 0 {
			t.Fatalf("%s reports zero count (resident=%v)", name, tm.Resident)
		}
	}
}
