package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestIngestBufferOwnership is the proof of the ingestBuf recycling rule:
// a handler that returns early — its context cancelled, or its tracker
// closed — leaves a batch queued or mid-apply whose rows still alias the
// handler's pooled buffers. If such a return recycled them, the requests
// posted next would decode over rows a pool worker has yet to read; here
// that shows as victim/doomed state that differs from an oracle fed the
// same batches uncancelled, or as a data race under -race.
//
// One worker and one lane make the order exact: the worker is parked on a
// tracker mutex the test holds, everything posted meanwhile queues behind
// it in post order, and releasing the mutex applies the lot.
func TestIngestBufferOwnership(t *testing.T) {
	const dim, rowsPer = 6, 5
	spec := Spec{Kind: KindMatrix, Protocol: "p2", Sites: 2, Epsilon: 0.1, Dim: dim}
	open := func(names ...string) (*Manager, map[string]*Tracker) {
		m, err := Open(Options{PoolWorkers: 1, QueueDepth: 64, EnqueueTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		trs := make(map[string]*Tracker)
		for _, name := range names {
			if trs[name], err = m.Create(name, spec); err != nil {
				t.Fatal(err)
			}
		}
		return m, trs
	}
	m, trs := open("slow", "victim", "doomed")
	_, oracle := open("victim", "doomed")
	handler := m.Handler()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// park stops the pool's one worker inside a batch for slow, blocked on
	// the tracker mutex this takes, until the returned release. While it is
	// parked the lane holds exactly the batches posted since, in order.
	lane := 0
	park := func() (release func()) {
		t.Helper()
		slow := trs["slow"]
		slow.mu.Lock()
		done := make(chan error, 1)
		slow.inflight.Add(1)
		m.pool.lanes[0] <- poolReq{t: slow, req: ingestReq{site: 0, rows: detRows(99, 1, dim), done: done}}
		waitFor("the worker to take slow's batch", func() bool { return m.pool.queueLen() == 0 })
		lane = 0
		return func() {
			t.Helper()
			slow.mu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	// post sends batch number seed to the tracker's rows route on a
	// goroutine, feeds the oracle's twin the same rows directly, and
	// returns once the batch is in the lane. Call it with the worker parked.
	post := func(ctx context.Context, name string, seed uint64) <-chan int {
		t.Helper()
		site, rows := int(seed%2), detRows(seed, rowsPer, dim)
		body, err := json.Marshal(map[string]any{"site": site, "rows": rows})
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle[name].IngestRows(context.Background(), site, rows); err != nil {
			t.Fatal(err)
		}
		status := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/trackers/"+name+"/rows", bytes.NewReader(body))
			handler.ServeHTTP(rec, req.WithContext(ctx))
			status <- rec.Code
		}()
		lane++
		waitFor("the batch to queue", func() bool { return m.pool.queueLen() == lane })
		return status
	}
	want := func(status <-chan int, code int) {
		t.Helper()
		if got := <-status; got != code {
			t.Fatalf("status %d, want %d", got, code)
		}
	}
	bg := context.Background()

	// Cancelled contexts: six batches queue for victim behind the parked
	// worker, three of their requests are cancelled and return, and six
	// more requests then decode — into the same buffers, had they been
	// recycled — before anything is applied.
	release := park()
	var queued []<-chan int
	var cancels []context.CancelFunc
	for seed := uint64(0); seed < 6; seed++ {
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		cancels = append(cancels, cancel)
		queued = append(queued, post(ctx, "victim", seed))
	}
	for k := 0; k < len(queued); k += 2 {
		cancels[k]()
		want(queued[k], http.StatusInternalServerError)
	}
	for seed := uint64(6); seed < 12; seed++ {
		queued = append(queued, post(bg, "victim", seed))
	}
	release()
	for k, status := range queued {
		if k >= 6 || k%2 == 1 {
			want(status, http.StatusOK)
		}
	}

	// Closed tracker: doomed's batch is parked inside apply, on doomed's
	// own mutex, when the tracker closes and its request returns 503; more
	// victim requests decode; then the parked batch reads its rows.
	release = park()
	trs["doomed"].mu.Lock()
	doomed := post(bg, "doomed", 200)
	release()
	waitFor("the worker to take doomed's batch", func() bool { return m.pool.queueLen() == 0 })
	lane = 0
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		trs["doomed"].close()
	}()
	want(doomed, http.StatusServiceUnavailable)
	queued = queued[:0]
	for seed := uint64(12); seed < 18; seed++ {
		queued = append(queued, post(bg, "victim", seed))
	}
	trs["doomed"].mu.Unlock()
	for _, status := range queued {
		want(status, http.StatusOK)
	}
	<-closed

	if !sameState(t, stateBytes(t, trs["victim"]), stateBytes(t, oracle["victim"])) {
		t.Error("victim differs from the uncancelled oracle: a queued batch's buffers were overwritten")
	}
	// The worker may have seen doomed closed before applying its batch;
	// it must never have applied anything but that batch.
	if got := stateBytes(t, trs["doomed"]); trs["doomed"].Count() != 0 && !sameState(t, got, stateBytes(t, oracle["doomed"])) {
		t.Error("doomed applied rows other than the ones posted to it")
	}
}
