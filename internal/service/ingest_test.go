package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	distmat "repro"
)

// waitFor polls cond — a counter only the code under test advances — and
// fails the test if it stays false for 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestIngestShedsLoad fills the manager's admission slots with callers
// parked on one tracker's lock and checks what the next caller gets:
// ErrBusy within the admission timeout (503 + Retry-After over HTTP), or
// its own context's error if that ends first — nothing applied either way
// — and that every parked batch lands once the lock is released.
func TestIngestShedsLoad(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := Spec{Kind: KindHH, Sites: 2, Epsilon: 0.1}
	parked, err := m.Create("parked", spec)
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Create("other", spec)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	batch := func(i int) []distmat.WeightedItem {
		return []distmat.WeightedItem{{Elem: uint64(i), Weight: 1}, {Elem: 7, Weight: 2}}
	}

	release := HoldTracker(parked)
	errs := make(chan error, AdmitSlots)
	for i := 0; i < AdmitSlots; i++ {
		go func(i int) { errs <- parked.IngestItems(bg, i%2, batch(i)) }(i)
	}
	waitFor(t, "every slot to be taken", func() bool { return parked.QueueLen() == AdmitSlots })

	// The slots are manager-wide: a tracker nobody holds sheds too.
	const timeout = 50 * time.Millisecond
	SetAdmitTimeout(m, timeout)
	start := time.Now()
	if err := other.IngestItems(bg, 0, batch(0)); !errors.Is(err, ErrBusy) {
		t.Fatalf("ingest past %d admitted callers: %v, want ErrBusy", AdmitSlots, err)
	}
	if waited := time.Since(start); waited < timeout || waited > 100*timeout {
		t.Errorf("shed after %v, want about the %v admission timeout", waited, timeout)
	}
	if got := other.metrics().Rejected; got != 1 { // m.Metrics() would park on the held tracker
		t.Errorf("rejected = %d, want 1", got)
	}
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/trackers/other/items",
		bytes.NewReader([]byte(`{"site":0,"items":[{"elem":1,"weight":1}]}`))))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("shed POST: status %d, Retry-After %q; want 503 with a Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}

	// A caller whose context ends first gets that error, not ErrBusy.
	SetAdmitTimeout(m, time.Minute)
	ctx, cancel := context.WithCancel(bg)
	cancelled := make(chan error, 1)
	go func() { cancelled <- other.IngestItems(ctx, 0, batch(0)) }()
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Errorf("ingest with a cancelled context while shedding: %v, want context.Canceled", err)
	}
	if got := other.Count(); got != 0 {
		t.Errorf("other holds %d items after three refused batches, want 0", got)
	}

	release()
	for i := 0; i < AdmitSlots; i++ {
		if err := <-errs; err != nil {
			t.Errorf("parked ingest: %v", err)
		}
	}
	hits, snap, err := parked.QueryHeavyHitters(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 2*AdmitSlots || len(hits) != 1 || hits[0].Elem != 7 {
		t.Errorf("parked holds %d items, heavy hitters %v; want %d items and element 7 (2/3 of the weight)", snap.Count, hits, 2*AdmitSlots)
	}
	if err := other.IngestItems(bg, 0, batch(0)); err != nil {
		t.Errorf("ingest after the slots drained: %v", err)
	}
}

// TestIngestCancelledRequestsApplyWhole posts row batches through Handler()
// from several goroutines, each to its own tracker, cancelling every other
// request's context — before the post, or racing it. The handler owns its
// pooled ingestBuf for the whole request, so whatever the context does a
// batch is applied whole or not at all: each tracker must be StateEqual to
// an oracle fed, in order, its acked batches plus some subset of the
// unacked ones. A buffer recycled early shows as a torn or overwritten
// batch (no subset matches) or as a data race under -race.
func TestIngestCancelledRequestsApplyWhole(t *testing.T) {
	const feeders, posts, dim, rowsPer = 4, 12, 6, 5
	spec := Spec{Kind: KindMatrix, Protocol: "p2", Sites: 2, Epsilon: 0.1, Dim: dim}
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	handler := m.Handler()
	acked := make([][posts]bool, feeders)
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		name := fmt.Sprintf("victim%d", g)
		if _, err := m.Create(name, spec); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < posts; k++ {
				body, err := json.Marshal(map[string]any{"site": k % 2, "rows": detRows(uint64(g*posts+k), rowsPer, dim)})
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				switch k % 4 {
				case 0:
					cancel()
				case 2:
					go cancel()
				}
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/trackers/"+name+"/rows", bytes.NewReader(body))
				handler.ServeHTTP(rec, req.WithContext(ctx))
				cancel()
				acked[g][k] = rec.Code == http.StatusOK
				if !acked[g][k] && k%2 == 1 {
					t.Errorf("%s batch %d, never cancelled: status %d", name, k, rec.Code)
				}
			}
		}(g)
	}
	wg.Wait()

	for g := 0; g < feeders; g++ {
		name := fmt.Sprintf("victim%d", g)
		victim, err := m.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got := stateBytes(t, victim)
		var unacked []int
		for k, ok := range acked[g] {
			if !ok {
				unacked = append(unacked, k)
			}
		}
		matched := false
		for subset := 0; subset < 1<<len(unacked) && !matched; subset++ {
			applied := acked[g]
			for i, k := range unacked {
				applied[k] = subset>>i&1 == 1
			}
			om, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := om.Create(name, spec)
			if err != nil {
				t.Fatal(err)
			}
			for k, ok := range applied {
				if !ok {
					continue
				}
				if err := oracle.IngestRows(context.Background(), k%2, detRows(uint64(g*posts+k), rowsPer, dim)); err != nil {
					t.Fatal(err)
				}
			}
			matched = sameState(t, got, stateBytes(t, oracle))
			om.Close()
		}
		if !matched {
			t.Errorf("%s (%d rows, %d batches unacked) matches no whole-batch oracle: a batch was torn or overwritten",
				name, victim.Count(), len(unacked))
		}
	}
}

// TestCloseDuringIngest races feeders against Manager.Close, with and
// without a WAL, on two trackers over a resident cap of one (so every
// ingest also runs the eviction sweep and its checkpoint): every call is
// acked or refused with ErrClosed, the reopened manager
// holds exactly the acked batches, and Close leaves none of the manager's
// goroutines (a sharded tracker's workers, the checkpoint loop, the
// WAL's) behind.
func TestCloseDuringIngest(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			const feeders, batch = 6, 4
			before := runtime.NumGoroutine()
			opts := Options{DataDir: filepath.Join(t.TempDir(), "data"), WAL: wal, CheckpointInterval: time.Millisecond, MaxResident: 1}
			m, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			names := []string{"plain", "sharded"}
			for i, name := range names {
				if _, err := m.Create(name, Spec{Kind: KindHH, Sites: 2, Epsilon: 0.1, Shards: 1 + i}); err != nil {
					t.Fatal(err)
				}
			}
			var acks [2]atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < feeders; g++ {
				tr, err := m.Get(names[g%2])
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; ; k++ {
						switch err := tr.IngestItems(context.Background(), g%2, detItems(uint64(g<<20+k), batch)); {
						case err == nil:
							acks[g%2].Add(1)
						case errors.Is(err, ErrClosed):
							return
						default:
							t.Errorf("ingest racing Close: %v, want nil or ErrClosed", err)
							return
						}
					}
				}(g)
			}
			waitFor(t, "both trackers to ack a few batches", func() bool { return acks[0].Load() > 8 && acks[1].Load() > 8 })
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			waitFor(t, "the manager's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })

			opts.CheckpointInterval = 0
			m2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			for i, name := range names {
				tr, err := m2.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := tr.Count(), batch*acks[i].Load(); got != want {
					t.Errorf("%s reopened with %d items, want %d (%d acked batches)", name, got, want, acks[i].Load())
				}
			}
		})
	}
}
