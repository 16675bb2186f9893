package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	distmat "repro"
	"repro/internal/perfguard"
	"repro/internal/vfs"
)

// Fault-in reads the tracker's own checkpoint and nothing else. These
// tests drive hibernate directly (MaxResident stays 0, so no sweep races
// them) and watch the filesystem through a counting vfs.Fault.

var coldSpec = Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 9}

// twinState is the state of a never-hibernated coldSpec tracker fed
// detItems batches 0..batches-1, on a manager with no data dir at all.
func twinState(tb testing.TB, batches int) []byte {
	tb.Helper()
	m, err := Open(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	tw, err := m.Create("cold", coldSpec)
	if err != nil {
		tb.Fatal(err)
	}
	feedCold(tb, tw, 0, batches)
	return StateBytes(tb, tw)
}

func feedCold(tb testing.TB, t *Tracker, from, to int) {
	tb.Helper()
	for i := from; i < to; i++ {
		if err := t.IngestItems(context.Background(), i%2, detItems(uint64(i), 5)); err != nil {
			tb.Fatalf("batch %d into %s: %v", i, t.name, err)
		}
	}
}

func mustHibernate(tb testing.TB, m *Manager, t *Tracker) {
	tb.Helper()
	if !m.hibernate(t) || t.resident() {
		tb.Fatalf("%s did not hibernate", t.name)
	}
}

func isSegment(path string) bool {
	ok, _ := filepath.Match("wal-*.seg", filepath.Base(path))
	return ok
}

// TestFaultInReadsNoWAL faults a stub in behind several rotated segments
// of other trackers' records: no log file may be opened or read, and the
// session must equal a never-hibernated twin's.
func TestFaultInReadsNoWAL(t *testing.T) {
	fault := vfs.NewFault(vfs.OS())
	fault.Match(isSegment)
	opts := walTestOptions(t, filepath.Join(t.TempDir(), "data"))
	opts.FS = fault
	opts.WALSegmentBytes = 256
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cold, err := m.Create("cold", coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	feedCold(t, cold, 0, 3)
	mustHibernate(t, m, cold)

	rotated := m.wal.Stats().Rotations
	for _, name := range []string{"hot1", "hot2"} {
		hot, err := m.Create(name, Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		feedCold(t, hot, 100, 115)
	}
	if got := m.wal.Stats().Rotations - rotated; got < 3 {
		t.Fatalf("only %d segments rotated behind the stub, want ≥ 3", got)
	}

	fault.Reset()
	if _, _, err := cold.QueryHeavyHitters(0.1); err != nil {
		t.Fatalf("query on the stub: %v", err)
	}
	if !cold.resident() || m.faults.Load() != 1 {
		t.Fatalf("query did not fault the stub in (faults %d)", m.faults.Load())
	}
	if opens, reads := fault.Count(vfs.OpOpenFile), fault.Count(vfs.OpRead); opens != 0 || reads != 0 {
		t.Errorf("fault-in touched the log: %d segment opens, %d reads, want 0", opens, reads)
	}
	if !sameState(t, StateBytes(t, cold), twinState(t, 3)) {
		t.Error("faulted-in state differs from a never-hibernated twin")
	}
}

// TestFaultInRejectsMismatchedCheckpoint swaps a stub's checkpoint file
// for an older one of the same tracker. Both cursors are in hand, so the
// fault-in must refuse rather than install a session missing records: the
// tracker stays a stub, monitoring keeps working, and a restart recovers
// everything through the WAL.
func TestFaultInRejectsMismatchedCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	opts := walTestOptions(t, dir)
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Create("cold", coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	feedCold(t, cold, 0, 2)
	if err := m.Checkpoint("cold"); err != nil {
		t.Fatal(err)
	}
	older, err := os.ReadFile(m.checkpointPath("cold"))
	if err != nil {
		t.Fatal(err)
	}
	feedCold(t, cold, 2, 4)
	mustHibernate(t, m, cold)
	if err := os.WriteFile(m.checkpointPath("cold"), older, 0o600); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := cold.IngestItems(ctx, 0, detItems(50, 5)); !errors.Is(err, errStaleCheckpoint) {
		t.Fatalf("ingest into the mismatched stub = %v, want errStaleCheckpoint", err)
	}
	if _, _, err := cold.QueryHeavyHitters(0.1); !errors.Is(err, errStaleCheckpoint) {
		t.Fatalf("query on the mismatched stub = %v, want errStaleCheckpoint", err)
	}
	if cold.resident() || m.faults.Load() != 0 {
		t.Fatalf("a refused fault-in installed a session (faults %d)", m.faults.Load())
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics beside a refused stub: status %d", resp.StatusCode)
	}
	// Crash: abandon m. The older file plus the log is a complete history.

	m2, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m2.Close()
	cold2, err := m2.Get("cold")
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(t, StateBytes(t, cold2), twinState(t, 4)) {
		t.Error("restart did not recover the refused tracker through the WAL")
	}
}

// TestReadOnlyVisitEvictsWithoutCheckpoint: a tracker faulted in by a
// query is still clean, so evicting it again writes nothing — and the
// file it left in place still restores bit-identically.
func TestReadOnlyVisitEvictsWithoutCheckpoint(t *testing.T) {
	fault := vfs.NewFault(vfs.OS())
	opts := walTestOptions(t, filepath.Join(t.TempDir(), "data"))
	opts.FS = fault
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cold, err := m.Create("cold", coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	feedCold(t, cold, 0, 3)
	mustHibernate(t, m, cold)
	if _, _, err := cold.QueryHeavyHitters(0.1); err != nil {
		t.Fatal(err)
	}

	fault.Reset()
	mustHibernate(t, m, cold)
	if n := fault.Count(vfs.OpRename) + fault.Count(vfs.OpWrite); n != 0 {
		t.Errorf("evicting a clean tracker did %d writes/renames, want 0", n)
	}
	if got := m.evictions.Load(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if !sameState(t, StateBytes(t, cold), twinState(t, 3)) {
		t.Error("state after a write-free eviction differs from a never-hibernated twin")
	}
}

// TestRejectedBatchKeepsCheckpointCursor: a batch the session rejects is
// still a log record of the tracker, so it must dirty the tracker — or a
// write-free eviction would leave a file one record behind the stub and
// the next fault-in would (rightly) refuse it.
func TestRejectedBatchKeepsCheckpointCursor(t *testing.T) {
	m, err := Open(walTestOptions(t, filepath.Join(t.TempDir(), "data")))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	q, err := m.Create("q", Spec{Kind: KindQuantile, Sites: 2, Epsilon: 0.1, Bits: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := q.IngestItems(ctx, 0, []distmat.WeightedItem{{Elem: 7, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint("q"); err != nil {
		t.Fatal(err)
	}
	if err := q.IngestItems(ctx, 0, []distmat.WeightedItem{{Elem: 1 << 20, Weight: 1}}); err == nil {
		t.Fatal("out-of-universe item was accepted")
	}
	mustHibernate(t, m, q)
	if _, _, err := q.QueryQuantiles([]float64{0.5}); err != nil {
		t.Fatalf("fault-in after a rejected batch: %v", err)
	}
}

// foreignLogBytes is the log the fault-in benchmark and guard put behind
// the stub: 64 one-MiB item records of another tracker, in four default
// 16 MiB segments.
const foreignLogBytes = 64 << 20

// faultInBed is a WAL-enabled manager holding one hibernated tracker and,
// when foreign is set, foreignLogBytes of somebody else's records logged
// after the stub's last one. faultIn is one query on the stub; evict puts
// it back (the visit being read-only, without writing anything).
func faultInBed(tb testing.TB, foreign bool) (faultIn, evict func()) {
	tb.Helper()
	m, err := Open(Options{DataDir: filepath.Join(tb.TempDir(), "data"), WAL: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	cold, err := m.Create("cold", coldSpec)
	if err != nil {
		tb.Fatal(err)
	}
	feedCold(tb, cold, 0, 20)
	mustHibernate(tb, m, cold)
	if foreign {
		hot, err := m.Create("hot", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 5})
		if err != nil {
			tb.Fatal(err)
		}
		batch := detItems(1, 1<<16) // 16 B an item: one MiB a record
		for m.wal.Stats().Bytes < foreignLogBytes {
			if err := hot.IngestItems(context.Background(), 0, batch); err != nil {
				tb.Fatal(err)
			}
		}
	}
	faultIn = func() {
		if _, _, err := cold.QueryHeavyHitters(0.1); err != nil {
			tb.Fatal(err)
		}
	}
	return faultIn, func() { mustHibernate(tb, m, cold) }
}

// BenchmarkFaultIn times one fault-in with nothing and with 64 MiB of
// other trackers' records in the log behind the stub. The two are the
// same number: fault-in never opens the log.
func BenchmarkFaultIn(b *testing.B) {
	for _, c := range []struct {
		name    string
		foreign bool
	}{{"empty-log", false}, {"64MiB-foreign-log", true}} {
		b.Run(c.name, func(b *testing.B) {
			faultIn, evict := faultInBed(b, c.foreign)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				faultIn()
				b.StopTimer()
				evict()
				b.StartTimer()
			}
		})
	}
}

// TestFaultInGuard holds fault-in independent of the log: behind 64 MiB
// of foreign records it may cost at most twice what it costs behind an
// empty log, each bed's tracker hibernated again, untimed, after each lap.
// Streaming the suffix through memory is > 20×.
func TestFaultInGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	bed := func(name string, foreign bool) perfguard.Body {
		faultIn, evict := faultInBed(t, foreign)
		return perfguard.Body{Name: name, Run: faultIn, Done: evict}
	}
	perfguard.Hold(t, perfguard.Row{Name: "fault-in, a foreign log ≤ 2× an empty one",
		Ref: bed("empty log", false), Fast: bed("64 MiB foreign log", true), Floor: 0.5})
}
