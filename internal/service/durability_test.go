package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	distmat "repro"
	"repro/internal/vfs"
)

// These tests are the service-level crash contract: no acknowledged batch
// is ever lost. The crash idiom throughout is to abandon a manager
// without Close (its workers hold no background writers when
// CheckpointInterval is 0 and the WAL runs leader commits), then Open a
// fresh manager over the same directory — exactly what a kill -9 and a
// restart leave behind.

func walTestOptions(t *testing.T, dir string) Options {
	t.Helper()
	return Options{
		DataDir: dir,
		WAL:     true,
		Logf:    t.Logf,
	}
}

// stateBytes serializes a tracker's session under its lock — the oracle
// the recovery tests compare against.
func stateBytes(tb testing.TB, t *Tracker) []byte {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	if err := t.sess.SaveState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameState compares two SaveState streams structurally: the stream is
// not byte-canonical (map-backed snapshots serialize in map iteration
// order), so recovery equivalence uses distmat.StateEqual.
func sameState(tb testing.TB, got, want []byte) bool {
	tb.Helper()
	eq, err := distmat.StateEqual(got, want)
	if err != nil {
		tb.Fatalf("comparing session states: %v", err)
	}
	return eq
}

// detRows builds a deterministic batch of rows from a tiny LCG, so the
// same (seed, n, dim) always yields the same floats.
func detRows(seed uint64, n, dim int) [][]float64 {
	x := seed*2862933555777941757 + 3037000493
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			x = x*6364136223846793005 + 1442695040888963407
			row[j] = float64(int64(x>>33))/float64(1<<30) - 1
		}
		rows[i] = row
	}
	return rows
}

// detItems builds a deterministic batch of weighted items with elements
// inside a 10-bit universe (valid for quantile trackers too).
func detItems(seed uint64, n int) []distmat.WeightedItem {
	x := seed*2862933555777941757 + 3037000493
	items := make([]distmat.WeightedItem, n)
	for i := range items {
		x = x*6364136223846793005 + 1442695040888963407
		items[i] = distmat.WeightedItem{Elem: (x >> 40) % 1024, Weight: 1 + float64((x>>20)%5)}
	}
	return items
}

// TestWALRecoveryBitIdentical is the core durability proof: three
// trackers (one of each kind) ingest acked batches across explicit and
// assigner-routed sites with a checkpoint taken mid-stream, the process
// "crashes" (manager abandoned), and the recovered manager must hold
// bit-identical session state — checkpoint restore plus WAL replay of
// the tail, in original LSN order.
func TestWALRecoveryBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	m, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	const sites = 4
	gram, err := m.Create("gram", Spec{Kind: KindMatrix, Sites: sites, Epsilon: 0.2, Dim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := m.Create("hot", Spec{Kind: KindHH, Sites: sites, Epsilon: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := m.Create("lat", Spec{Kind: KindQuantile, Sites: sites, Epsilon: 0.05, Bits: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const batches = 12
	for i := range batches {
		site := i % sites
		if i%5 == 4 {
			site = AssignSite // exercise the assigner path in the log too
		}
		if err := gram.IngestRows(ctx, site, detRows(uint64(i), 6, 8)); err != nil {
			t.Fatalf("gram batch %d: %v", i, err)
		}
		if err := hot.IngestItems(ctx, site, detItems(uint64(i), 9)); err != nil {
			t.Fatalf("hot batch %d: %v", i, err)
		}
		if err := lat.IngestItems(ctx, site, detItems(uint64(100+i), 9)); err != nil {
			t.Fatalf("lat batch %d: %v", i, err)
		}
		if i == batches/2 {
			// A mid-stream checkpoint: recovery must restore it and replay
			// only the records beyond its WAL coverage.
			if err := m.CheckpointAll(); err != nil {
				t.Fatalf("mid-stream checkpoint: %v", err)
			}
		}
	}

	oracle := map[string][]byte{}
	counts := map[string]int64{}
	for _, tr := range []*Tracker{gram, hot, lat} {
		oracle[tr.Name()] = stateBytes(t, tr)
		counts[tr.Name()] = tr.Count()
	}
	// Crash: abandon m without Close.

	m2, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	for name, want := range oracle {
		tr, err := m2.Get(name)
		if err != nil {
			t.Fatalf("recovered %s: %v", name, err)
		}
		if got := tr.Count(); got != counts[name] {
			t.Errorf("%s: recovered count %d, want %d", name, got, counts[name])
		}
		if !sameState(t, stateBytes(t, tr), want) {
			t.Errorf("%s: recovered state differs from oracle", name)
		}
	}
	// A clean Close checkpoints everything and compacts the log; a third
	// open (checkpoint-only restore) must still be bit-identical.
	if err := m2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m3, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer m3.Close()
	for name, want := range oracle {
		tr, err := m3.Get(name)
		if err != nil {
			t.Fatalf("reopened %s: %v", name, err)
		}
		if !sameState(t, stateBytes(t, tr), want) {
			t.Errorf("%s: state after clean close differs from oracle", name)
		}
	}
}

// TestWALTornTailEveryByte cuts the power at every byte of the log: for
// each prefix of the WAL segment, recovery must come up with the state
// of an exact acked-batch prefix — never a torn half-batch, never a
// failure. The oracle records the tracker state after every ack.
func TestWALTornTailEveryByte(t *testing.T) {
	srcDir := filepath.Join(t.TempDir(), "data")
	opts := walTestOptions(t, srcDir)
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Create("m", Spec{Kind: KindMatrix, Sites: 2, Epsilon: 0.3, Dim: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const batches, rowsPer = 4, 2
	ctx := context.Background()
	oracle := [][]byte{stateBytes(t, tr)} // oracle[j] = state after j acked batches
	for i := range batches {
		if err := tr.IngestRows(ctx, i%2, detRows(uint64(i), rowsPer, 3)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		oracle = append(oracle, stateBytes(t, tr))
	}
	// Crash: abandon m. Every acked batch is already fsync-durable, so the
	// single segment on disk is complete.
	walDir := filepath.Join(srcDir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 segment, have %d", len(entries))
	}
	segName := entries[0].Name()
	seg, err := os.ReadFile(filepath.Join(walDir, segName))
	if err != nil {
		t.Fatal(err)
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	sawFull := false
	for cut := 0; cut <= len(seg); cut += step {
		destDir := filepath.Join(t.TempDir(), "data")
		if err := os.MkdirAll(filepath.Join(destDir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(destDir, "wal", segName), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		dopts := walTestOptions(t, destDir)
		dopts.Logf = nil // too chatty at 1 open per byte
		m2, err := Open(dopts)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		tr2, err := m2.Get("m")
		if err != nil {
			// The create record itself was cut; an empty manager is the
			// correct zero-batch recovery.
			if !errors.Is(err, ErrNotFound) || cut >= len(seg) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			m2.Close()
			continue
		}
		j := int(tr2.Count()) / rowsPer
		if int(tr2.Count())%rowsPer != 0 || j > batches {
			t.Fatalf("cut %d: recovered %d rows — not a whole-batch prefix", cut, tr2.Count())
		}
		if !sameState(t, stateBytes(t, tr2), oracle[j]) {
			t.Fatalf("cut %d: recovered state differs from oracle after %d batches", cut, j)
		}
		if j == batches {
			sawFull = true
		}
		m2.Close()
	}
	if !sawFull {
		t.Fatal("no cut recovered the full stream (the uncut tail should)")
	}
}

// TestWALConcurrentIngestRecovery hammers one tracker of each flavor
// from several goroutines, then proves recovery reproduces the exact
// final state: LSN order equals apply order even under contention, so
// replay converges bit-identically. Run under -race this is also the
// staging path's concurrency contract.
func TestWALConcurrentIngestRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	m, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	const sites = 4
	hot, err := m.Create("hot", Spec{Kind: KindHH, Sites: sites, Epsilon: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gram, err := m.Create("gram", Spec{Kind: KindMatrix, Sites: sites, Epsilon: 0.25, Dim: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	errs := make(chan error, 2*sites)
	for g := range sites {
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				err = hot.IngestItems(ctx, g, detItems(uint64(g*1000+i), 7))
			}
			errs <- err
		}()
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				err = gram.IngestRows(ctx, g, detRows(uint64(g*1000+i), 4, 6))
			}
			errs <- err
		}()
	}
	for range 2 * sites {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	oracleHot, oracleGram := stateBytes(t, hot), stateBytes(t, gram)
	hotCount, gramCount := hot.Count(), gram.Count()
	// Crash: abandon m.

	m2, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m2.Close()
	hot2, err := m2.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	gram2, err := m2.Get("gram")
	if err != nil {
		t.Fatal(err)
	}
	if hot2.Count() != hotCount || gram2.Count() != gramCount {
		t.Fatalf("recovered counts %d/%d, want %d/%d", hot2.Count(), gram2.Count(), hotCount, gramCount)
	}
	if !sameState(t, stateBytes(t, hot2), oracleHot) {
		t.Error("hot: recovered state differs from oracle")
	}
	if !sameState(t, stateBytes(t, gram2), oracleGram) {
		t.Error("gram: recovered state differs from oracle")
	}
}

// TestWALCompactionAfterCheckpoint forces segment rotation with a tiny
// segment threshold, checkpoints, and requires the covered segments to
// be deleted — then proves recovery from checkpoint + the surviving tail
// is still bit-identical.
func TestWALCompactionAfterCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	opts := walTestOptions(t, dir)
	opts.WALSegmentBytes = 256
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Create("hot", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range 30 {
		// Leader commit per acked batch spreads the records over many
		// 256-byte segments.
		if err := tr.IngestItems(ctx, i%2, detItems(uint64(i), 5)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	before := m.wal.Stats()
	if before.Segments < 2 || before.Rotations == 0 {
		t.Fatalf("expected rotations with 256-byte segments, stats %+v", before)
	}
	if err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	after := m.wal.Stats()
	if after.SegmentsCompacted == 0 || after.Segments != 1 {
		t.Fatalf("checkpoint did not compact: before %d segments, after %+v", before.Segments, after)
	}

	// Post-compaction ingest keeps appending past the checkpointed prefix.
	for i := range 5 {
		if err := tr.IngestItems(ctx, i%2, detItems(uint64(100+i), 5)); err != nil {
			t.Fatalf("post-compaction batch %d: %v", i, err)
		}
	}
	oracle := stateBytes(t, tr)
	count := tr.Count()
	// Crash: abandon m.

	m2, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m2.Close()
	tr2, err := m2.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != count {
		t.Fatalf("recovered count %d, want %d", tr2.Count(), count)
	}
	if !sameState(t, stateBytes(t, tr2), oracle) {
		t.Error("recovered state differs from oracle after compaction")
	}
}

// TestIdleTrackerDoesNotPinWAL: a tracker with no record in the log (live
// cursor == checkpointed cursor) must not hold the compaction floor —
// before, one idle tenant's never-advancing walCkpt pinned every segment
// forever. Recovery from what survives is still bit-identical for both.
func TestIdleTrackerDoesNotPinWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	opts := walTestOptions(t, dir)
	opts.WALSegmentBytes = 256
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	idle, err := m.Create("idle", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.IngestItems(ctx, 0, detItems(7, 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	hot, err := m.Create("hot", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 30 {
		if err := hot.IngestItems(ctx, i%2, detItems(uint64(i), 5)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	before := m.wal.Stats()
	if err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	after := m.wal.Stats()
	if after.Segments != 1 {
		t.Fatalf("idle tracker pinned the log: before %d segments, after %+v", before.Segments, after)
	}
	oracleIdle, oracleHot := stateBytes(t, idle), stateBytes(t, hot)
	// Crash: abandon m.

	m2, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m2.Close()
	for name, oracle := range map[string][]byte{"idle": oracleIdle, "hot": oracleHot} {
		tr, err := m2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !sameState(t, stateBytes(t, tr), oracle) {
			t.Errorf("%s: recovered state differs from oracle after compaction", name)
		}
	}
}

// TestDegradedModeAndRearm scripts a WAL disk failure: ingest must fail
// fast with ErrDegraded (HTTP 503 + Retry-After), durable mutations
// (Create/Delete) are rejected too, /metrics reports the outage, the
// background loop re-arms once the disk heals, and a subsequent crash
// recovers exactly the acknowledged batches — the failed one is absent.
func TestDegradedModeAndRearm(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	walDir := filepath.Join(dir, "wal")
	fault := vfs.NewFault(vfs.OS())
	fault.Match(func(path string) bool { return strings.HasPrefix(path, walDir) })

	opts := walTestOptions(t, dir)
	opts.FS = fault
	opts.DegradedRetry = 5 * time.Millisecond
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 9}
	tr, err := m.Create("hot", spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batch := func(i int) []distmat.WeightedItem { return detItems(uint64(i), 6) }
	if err := tr.IngestItems(ctx, 0, batch(0)); err != nil {
		t.Fatalf("healthy ingest: %v", err)
	}

	errBoom := errors.New("injected: disk on fire")
	fault.FailOp(vfs.OpSync, errBoom)
	err = tr.IngestItems(ctx, 1, batch(1))
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, errBoom) {
		t.Fatalf("ingest on dead disk: %v, want ErrDegraded wrapping the cause", err)
	}
	// Fast-fail path: the gate rejects before anything is staged.
	if err := tr.IngestItems(ctx, 0, batch(2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("gated ingest: %v, want ErrDegraded", err)
	}
	if _, err := m.Create("other", spec); !errors.Is(err, ErrDegraded) {
		t.Fatalf("create while degraded: %v, want ErrDegraded", err)
	}
	if err := m.Delete("hot"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete while degraded: %v, want ErrDegraded", err)
	}
	if err := m.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Degraded() = %v", err)
	}

	// The HTTP surface: 503 with a Retry-After hint.
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	body, _ := json.Marshal(map[string]any{"site": 0, "items": []map[string]any{{"elem": 1}}})
	resp, err := srv.Client().Post(srv.URL+"/trackers/hot/items", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}

	met := m.Metrics()
	if met.Durability == nil || !met.Durability.Degraded || met.Durability.TimesDegraded != 1 {
		t.Fatalf("metrics do not report the outage: %+v", met.Durability)
	}
	if met.Durability.DegradedError == "" || met.Durability.WAL.Damaged == "" {
		t.Fatalf("degraded cause missing from metrics: %+v", met.Durability)
	}

	// Heal the disk; the background loop re-arms on its own.
	fault.ClearOp(vfs.OpSync)
	deadline := time.Now().Add(10 * time.Second)
	for m.Degraded() != nil {
		if time.Now().After(deadline) {
			t.Fatal("manager did not re-arm after the disk healed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if met := m.Metrics(); met.Durability.TimesRearmed != 1 {
		t.Fatalf("TimesRearmed = %d, want 1", met.Durability.TimesRearmed)
	}
	if err := tr.IngestItems(ctx, 1, batch(3)); err != nil {
		t.Fatalf("post-rearm ingest: %v", err)
	}
	// Crash WITHOUT Close: the live session applied batch(1) before its
	// fsync failed (it was never acknowledged), and a Close checkpoint
	// would persist that unacked state. Recovery from the log alone must
	// surface exactly the acknowledged prefix: batches 0 and 3.

	plain := walTestOptions(t, dir)
	m2, err := Open(plain)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m2.Close()
	tr2, err := m2.Get("hot")
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: a fresh WAL-less tracker fed only the acknowledged batches,
	// in LSN order.
	om, err := Open(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer om.Close()
	otr, err := om.Create("hot", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := otr.IngestItems(ctx, 0, batch(0)); err != nil {
		t.Fatal(err)
	}
	if err := otr.IngestItems(ctx, 1, batch(3)); err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != otr.Count() {
		t.Fatalf("recovered count %d, want %d (acked batches only)", tr2.Count(), otr.Count())
	}
	if !sameState(t, stateBytes(t, tr2), stateBytes(t, otr)) {
		t.Error("recovered state differs from acked-only oracle")
	}
}

// TestQuarantineCorruptCheckpoint: a checkpoint that fails to restore
// fails the Open by default; with Options.QuarantineCorrupt it is set
// aside as <name>.ckpt.corrupt, counted in /metrics, and the healthy
// trackers come up.
func TestQuarantineCorruptCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	base := Options{DataDir: dir, Logf: t.Logf}
	m, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, name := range []string{"good", "bad"} {
		tr, err := m.Create(name, Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.IngestItems(ctx, 0, detItems(uint64(i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	badPath := filepath.Join(dir, "bad.ckpt")
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(base); err == nil {
		t.Fatal("default Open accepted a corrupt checkpoint")
	}

	qopts := base
	qopts.QuarantineCorrupt = true
	m2, err := Open(qopts)
	if err != nil {
		t.Fatalf("quarantine open: %v", err)
	}
	defer m2.Close()
	if _, err := m2.Get("good"); err != nil {
		t.Fatalf("healthy tracker lost: %v", err)
	}
	if _, err := m2.Get("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt tracker: %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(badPath + corruptExt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(badPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt original still present: %v", err)
	}
	if n := m2.Metrics().QuarantinedCheckpoints; n != 1 {
		t.Fatalf("QuarantinedCheckpoints = %d, want 1", n)
	}
}

// TestSweepOrphanCheckpointTemps: temp files a crash left mid-checkpoint
// are deleted on Open, and never mistaken for checkpoints.
func TestSweepOrphanCheckpointTemps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	base := Options{DataDir: dir, Logf: t.Logf}
	m, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("keep", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	strays := []string{tempPrefix + "424242", tempPrefix + "crashed"}
	for _, s := range strays {
		if err := os.WriteFile(filepath.Join(dir, s), []byte("half a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := Open(base)
	if err != nil {
		t.Fatalf("open over strays: %v", err)
	}
	defer m2.Close()
	if _, err := m2.Get("keep"); err != nil {
		t.Fatal(err)
	}
	for _, s := range strays {
		if _, err := os.Stat(filepath.Join(dir, s)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived Open: %v", s, err)
		}
	}
}

// TestWriteFileAtomicPowerCut cuts the power at every byte of a
// checkpoint write, and fails each fsync/close/rename step: the previous
// checkpoint must always restore. Only a failed directory fsync may
// leave either version (the rename itself succeeded), and both are valid.
func TestWriteFileAtomicPowerCut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	fault := vfs.NewFault(vfs.OS())
	errBoom := errors.New("injected: power cut")

	env1 := envelope{Version: envelopeVersion, Name: "x", Spec: Spec{Kind: KindHH}, State: []byte("generation one"), WalLSN: 1}
	env2 := envelope{
		Version: envelopeVersion, Name: "x", Spec: Spec{Kind: KindHH, Sites: 3},
		State: []byte("generation two, rather longer"), Watermarks: map[int]uint64{1: 7}, WalLSN: 9,
	}
	readEnv := func() envelope {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("reading checkpoint back: %v", err)
		}
		defer f.Close()
		var env envelope
		if err := gob.NewDecoder(f).Decode(&env); err != nil {
			t.Fatalf("decoding checkpoint: %v", err)
		}
		return env
	}
	requireClean := func(context string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tempPrefix) {
				t.Fatalf("%s: temp file %s left behind", context, e.Name())
			}
		}
	}

	if err := writeFileAtomic(fault, path, env1); err != nil {
		t.Fatal(err)
	}
	if got := readEnv(); !reflect.DeepEqual(got, env1) {
		t.Fatalf("baseline write read back %+v", got)
	}

	var sized bytes.Buffer
	if err := gob.NewEncoder(&sized).Encode(env2); err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget < sized.Len(); budget++ {
		fault.Reset()
		fault.LimitWriteBytes(int64(budget), errBoom)
		if err := writeFileAtomic(fault, path, env2); !errors.Is(err, errBoom) {
			t.Fatalf("budget %d: err = %v, want the injected cut", budget, err)
		}
		fault.Reset()
		if got := readEnv(); !reflect.DeepEqual(got, env1) {
			t.Fatalf("budget %d: previous checkpoint corrupted", budget)
		}
		requireClean(fmt.Sprintf("budget %d", budget))
	}

	for _, op := range []vfs.Op{vfs.OpSync, vfs.OpClose, vfs.OpRename} {
		fault.Reset()
		fault.FailOp(op, errBoom)
		if err := writeFileAtomic(fault, path, env2); !errors.Is(err, errBoom) {
			t.Fatalf("failing %v: err = %v", op, err)
		}
		fault.Reset()
		if got := readEnv(); !reflect.DeepEqual(got, env1) {
			t.Fatalf("failing %v: previous checkpoint corrupted", op)
		}
		requireClean(op.String())
	}

	// A failed directory fsync happens after the rename: the error must
	// propagate (the caller may not advance durable watermarks), but the
	// file is already the new version.
	fault.Reset()
	fault.FailOp(vfs.OpSyncDir, errBoom)
	if err := writeFileAtomic(fault, path, env2); !errors.Is(err, errBoom) {
		t.Fatalf("failing syncdir: err = %v", err)
	}
	fault.Reset()
	if got := readEnv(); !reflect.DeepEqual(got, env2) && !reflect.DeepEqual(got, env1) {
		t.Fatalf("after failed syncdir, neither version decodes: %+v", got)
	}

	if err := writeFileAtomic(fault, path, env2); err != nil {
		t.Fatal(err)
	}
	if got := readEnv(); !reflect.DeepEqual(got, env2) {
		t.Fatalf("healed write read back %+v", got)
	}
	requireClean("healed")
}

// TestCreateDeleteReplay: creates and deletes are logged too. After a
// crash, an acknowledged delete stays deleted (never resurrected by
// replay) and a tracker created after it comes back with its data.
func TestCreateDeleteReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	m, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := m.Create("a", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.IngestItems(ctx, 0, detItems(1, 8)); err != nil {
		t.Fatal(err)
	}
	b, err := m.Create("b", Spec{Kind: KindMatrix, Sites: 2, Epsilon: 0.3, Dim: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.IngestRows(ctx, 0, detRows(2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestRows(ctx, 1, detRows(3, 3, 4)); err != nil {
		t.Fatal(err)
	}
	oracleB := stateBytes(t, b)
	// Crash: abandon m.

	m2, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer m2.Close()
	if _, err := m2.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted tracker resurrected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted tracker's checkpoint: %v", err)
	}
	b2, err := m2.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(t, stateBytes(t, b2), oracleB) {
		t.Error("b: recovered state differs from oracle")
	}
}
