package service

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	distmat "repro"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		DataDir: filepath.Join(t.TempDir(), "data"),
		Logf:    t.Logf,
	}
}

func TestCreateValidation(t *testing.T) {
	m, err := Open(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Create("bad/name", Spec{Kind: KindHH}); !errors.Is(err, ErrBadName) {
		t.Fatalf("slash name: %v, want ErrBadName", err)
	}
	if _, err := m.Create("..", Spec{Kind: KindHH}); !errors.Is(err, ErrBadName) {
		t.Fatalf("dotdot name: %v, want ErrBadName", err)
	}
	if _, err := m.Create("x", Spec{Kind: "frequency"}); !errors.Is(err, distmat.ErrInvalidConfig) {
		t.Fatalf("bad kind: %v, want ErrInvalidConfig", err)
	}
	if _, err := m.Create("x", Spec{Kind: KindMatrix, Protocol: "p9", Dim: 4}); !errors.Is(err, distmat.ErrUnknownProtocol) {
		t.Fatalf("bad protocol: %v, want ErrUnknownProtocol", err)
	}
	if _, err := m.Create("x", Spec{Kind: KindMatrix, Sites: -2, Dim: 4}); !errors.Is(err, distmat.ErrInvalidConfig) {
		t.Fatalf("bad sites: %v, want ErrInvalidConfig", err)
	}

	if _, err := m.Create("x", Spec{Kind: "hh", Sites: 3, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("x", Spec{Kind: KindHH}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v, want ErrExists", err)
	}
	tr, err := m.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind() != KindHH || tr.Spec().Protocol != "p2" || tr.Spec().Sites != 3 {
		t.Fatalf("spec echo %+v", tr.Spec())
	}
	if !tr.Persistable() {
		t.Fatal("hh p2 should be persistable")
	}
	if _, err := m.Get("y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v, want ErrNotFound", err)
	}
	if err := m.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

// TestConcurrentIngestAndMetrics feeds one tracker from many goroutines
// (explicit sites and assigner-routed) while scraping metrics, then checks
// the counts add up. Run under -race this is the concurrency contract of
// the sharded ingest path.
func TestConcurrentIngestAndMetrics(t *testing.T) {
	m, err := Open(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	tr, err := m.Create("hot", Spec{Kind: KindHH, Sites: 8, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}

	const feeders, batches, batchLen = 8, 20, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	// A metrics scraper racing the feeders.
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Metrics()
				_ = tr.Stats()
			}
		}
	}()
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			site := f // one feeder per site
			for b := 0; b < batches; b++ {
				items := make([]distmat.WeightedItem, batchLen)
				for i := range items {
					items[i] = distmat.WeightedItem{Elem: uint64((f*31 + i) % 97), Weight: 1}
				}
				if b%4 == 3 {
					site = AssignSite // mix in assigner-routed batches
				} else {
					site = f
				}
				if err := tr.IngestItems(context.Background(), site, items); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	want := int64(feeders * batches * batchLen)
	if got := tr.Ingested(); got != want {
		t.Fatalf("ingested %d, want %d", got, want)
	}
	mm := m.Metrics().Trackers["hot"]
	if mm.Count != want || mm.UpMsgs == 0 || mm.DownMsgs == 0 {
		t.Fatalf("metrics %+v: want count %d and non-zero up/down messages", mm, want)
	}
}

// TestIngestErrorsPropagate checks a bad batch reports its error through
// the shard path and — batches being atomic — leaves nothing ingested,
// not even the entries preceding the bad one.
func TestIngestErrorsPropagate(t *testing.T) {
	m, err := Open(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	tr, err := m.Create("q", Spec{Kind: KindQuantile, Sites: 2, Epsilon: 0.1, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	items := []distmat.WeightedItem{
		{Elem: 10, Weight: 1},
		{Elem: 512, Weight: 1}, // outside [0, 2^8)
		{Elem: 20, Weight: 1},
	}
	err = tr.IngestItems(context.Background(), 0, items)
	if !errors.Is(err, distmat.ErrInvalidItem) {
		t.Fatalf("bad value: %v, want ErrInvalidItem", err)
	}
	if got := tr.Ingested(); got != 0 {
		t.Fatalf("ingested %d after rejected batch, want 0 (batches are atomic)", got)
	}
	if err := tr.IngestItems(context.Background(), 5, items[:1]); !errors.Is(err, distmat.ErrInvalidSite) {
		t.Fatalf("site 5 of 2: %v, want ErrInvalidSite", err)
	}
}

// TestManagerCheckpointRestore round-trips a manager through Close/Open on
// the same data dir and checks identical query answers, then resumes
// ingestion.
func TestManagerCheckpointRestore(t *testing.T) {
	opts := testOptions(t)
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Create("lat", Spec{Kind: KindQuantile, Sites: 4, Epsilon: 0.05, Bits: 10})
	if err != nil {
		t.Fatal(err)
	}
	var items []distmat.WeightedItem
	for i := 0; i < 5_000; i++ {
		items = append(items, distmat.WeightedItem{Elem: uint64(i % 1024), Weight: 1})
	}
	if err := tr.IngestItems(context.Background(), AssignSite, items); err != nil {
		t.Fatal(err)
	}
	p99, err := tr.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := tr.Stats()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A closed tracker refuses work.
	if err := tr.IngestItems(context.Background(), 0, items[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}

	m2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	tr2, err := m2.Get("lat")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != int64(len(items)) {
		t.Fatalf("restored count %d, want %d", tr2.Count(), len(items))
	}
	if got, _ := tr2.Quantile(0.99); got != p99 {
		t.Fatalf("restored p99 %d, want %d", got, p99)
	}
	if tr2.Stats() != wantStats {
		t.Fatalf("restored stats %v, want %v", tr2.Stats(), wantStats)
	}
	// Resumes cleanly.
	if err := tr2.IngestItems(context.Background(), 3, items[:100]); err != nil {
		t.Fatal(err)
	}
}

// TestNonPersistableTracked checks a randomized protocol is hosted fine
// but marked non-persistable and skipped by checkpoints.
func TestNonPersistableTracked(t *testing.T) {
	opts := testOptions(t)
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Create("sampled", Spec{Kind: KindHH, Protocol: "p3", Sites: 2, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Persistable() {
		t.Fatal("p3 should not be persistable")
	}
	if err := tr.IngestItems(context.Background(), 0,
		[]distmat.WeightedItem{{Elem: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Get("sampled"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("non-persistable tracker after restart: %v, want ErrNotFound", err)
	}
}

// TestWindowedTrackerMetricsRace scrapes metrics while ingesting into a
// windowed matrix tracker, whose Stats sums sub-tracker state outside the
// accountant; under -race this pins the Tracker.Stats locking. (Windowed
// sessions are hosted fine but not persistable.)
func TestWindowedTrackerMetricsRace(t *testing.T) {
	m, err := Open(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Create("win", Spec{
		Kind: KindMatrix, Protocol: "p2", Sites: 2, Epsilon: 0.3, Dim: 8, Window: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Persistable() {
		t.Fatal("windowed tracker should not be persistable")
	}
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				_ = m.Metrics()
			}
		}
	}()
	row := make([]float64, 8)
	for i := range row {
		row[i] = 1
	}
	for b := 0; b < 50; b++ {
		rows := make([][]float64, 20)
		for i := range rows {
			rows[i] = row
		}
		if err := tr.IngestRows(context.Background(), b%2, rows); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	<-scraped
	if got := tr.Ingested(); got != 1000 {
		t.Fatalf("ingested %d, want 1000", got)
	}
}

// TestFastIngestSpec plumbs Spec.Fast through to the session: the hosted
// tracker runs the blocked fast ingest mode, whole POST-rows batches fold
// as blocks, and checkpoints survive a round trip with the mode intact.
func TestFastIngestSpec(t *testing.T) {
	m, err := Open(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Create("fastgram", Spec{
		Kind: KindMatrix, Protocol: "p2", Sites: 4, Epsilon: 0.2, Dim: 8, Fast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Spec().Fast {
		t.Fatal("spec echo lost Fast")
	}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 8)
		for j := range rows[i] {
			rows[i][j] = float64(i+j)/16 + 1
		}
	}
	for site := 0; site < 4; site++ {
		if err := tr.IngestRows(context.Background(), site, rows); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 4*64 {
		t.Fatalf("count %d, want %d", snap.Count, 4*64)
	}
	if snap.Gram == nil || snap.Gram.Trace() <= 0 {
		t.Fatal("fast tracker produced no coordinator estimate")
	}
	if !snap.Config.FastIngest {
		t.Fatal("session config echo lost FastIngest")
	}
	if err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
}
