package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memHandler is a reference coordinator: it applies blocks with the same
// dedup/gap/watermark rules the service layer uses, into an in-memory
// log the tests compare against. With alwaysDurable it acks
// durable == applied (a coordinator that never restarts); otherwise
// durable advances only at checkpoint().
type memHandler struct {
	alwaysDurable bool
	rejectHello   error
	gate          chan struct{} // when non-nil, RowBlock waits per call

	mu      sync.Mutex
	applied map[int]uint64
	durable map[int]uint64
	log     []appliedBlock
	dups    int
}

// dupCount reads dups under the lock: a late retransmitted duplicate can
// still be applied by the listener while a test reads it.
func (h *memHandler) dupCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dups
}

type appliedBlock struct {
	site int
	seq  uint64
	rows [][]float64
	msgs []Msg
}

// memCheckpoint is a point-in-time copy of handler state, standing in
// for the service layer's checkpoint file.
type memCheckpoint struct {
	applied map[int]uint64
	log     []appliedBlock
}

func newMemHandler(alwaysDurable bool) *memHandler {
	return &memHandler{
		alwaysDurable: alwaysDurable,
		applied:       make(map[int]uint64),
		durable:       make(map[int]uint64),
	}
}

func (h *memHandler) Hello(tracker string, site int) (uint64, uint64, error) {
	if h.rejectHello != nil {
		return 0, 0, h.rejectHello
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.applied[site], h.durable[site], nil
}

func (h *memHandler) RowBlock(tracker string, site int, seq uint64, rows [][]float64) (uint64, uint64, error) {
	cp := make([][]float64, len(rows))
	for i, r := range rows {
		cp[i] = append([]float64(nil), r...)
	}
	return h.apply(appliedBlock{site: site, seq: seq, rows: cp})
}

func (h *memHandler) MsgBlock(tracker string, site int, seq uint64, msgs []Msg) (uint64, uint64, error) {
	cp := make([]Msg, len(msgs))
	for i, m := range msgs {
		m.Vec = append([]float64(nil), m.Vec...)
		cp[i] = m
	}
	return h.apply(appliedBlock{site: site, seq: seq, msgs: cp})
}

// apply logs one block of either kind under the dedup and gap rules.
func (h *memHandler) apply(b appliedBlock) (uint64, uint64, error) {
	if h.gate != nil {
		<-h.gate
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	site, seq := b.site, b.seq
	a := h.applied[site]
	if seq <= a {
		h.dups++
		return a, h.durable[site], nil
	}
	if seq != a+1 {
		return 0, 0, fmt.Errorf("sequence gap: got %d, want %d", seq, a+1)
	}
	h.log = append(h.log, b)
	h.applied[site] = seq
	if h.alwaysDurable {
		h.durable[site] = seq
	}
	return seq, h.durable[site], nil
}

// checkpoint copies current state and advances the durable watermarks to
// it, like the service layer does after a checkpoint file lands.
func (h *memHandler) checkpoint() memCheckpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	ck := memCheckpoint{applied: make(map[int]uint64, len(h.applied))}
	for s, a := range h.applied {
		ck.applied[s] = a
		h.durable[s] = a
	}
	ck.log = append([]appliedBlock(nil), h.log...)
	return ck
}

// restore builds the handler a restarted coordinator would run: state
// from the checkpoint, everything after it lost.
func (ck memCheckpoint) restore(alwaysDurable bool) *memHandler {
	h := newMemHandler(alwaysDurable)
	for s, a := range ck.applied {
		h.applied[s] = a
		h.durable[s] = a
	}
	h.log = append([]appliedBlock(nil), ck.log...)
	return h
}

// TestDrainDurableProbe: a stream that is fully applied but not yet
// checkpoint-covered gets no further acks on its own — DrainDurable must
// still return once a checkpoint lands, via the duplicate-block probe
// that solicits a fresh watermark ack from the idle coordinator.
func TestDrainDurableProbe(t *testing.T) {
	h := newMemHandler(false)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := c.SendBlock(blockForSeq(seq, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, d, _ := watermarks(c); d != 0 {
		t.Fatalf("durable watermark %d before any checkpoint", d)
	}

	// Checkpoint while the stream is idle: no block is in flight, so no
	// ack would ever report the new durable watermark unprobed.
	h.checkpoint()
	if err := c.DrainDurable(ctx); err != nil {
		t.Fatalf("DrainDurable after an idle checkpoint: %v", err)
	}
	if a, d, _ := watermarks(c); a != 5 || d != 5 {
		t.Fatalf("watermarks %d/%d after durable drain, want 5/5", a, d)
	}
	if h.dupCount() == 0 {
		t.Fatal("durable drain completed without any probe duplicates")
	}
	verifyLog(t, h, 0, 5, 3, 4)
}

// blockForSeq generates the deterministic test block for a sequence
// number, so any process can reproduce what block N must contain.
func blockForSeq(seq uint64, n, dim int) [][]float64 {
	return randRows(rand.New(rand.NewSource(int64(seq)*1337+7)), n, dim)
}

// verifyLog requires the handler to hold exactly blocks 1..n for site,
// in order, bit-identical to the generator — every block applied exactly
// once.
func verifyLog(t *testing.T, h *memHandler, site int, n, rowsPer, dim int) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.log) != n {
		t.Fatalf("applied %d blocks, want %d", len(h.log), n)
	}
	for i, b := range h.log {
		if b.site != site || b.seq != uint64(i+1) {
			t.Fatalf("log[%d] = site %d seq %d, want site %d seq %d", i, b.site, b.seq, site, i+1)
		}
		want := blockForSeq(b.seq, rowsPer, dim)
		if len(b.rows) != len(want) {
			t.Fatalf("block %d has %d rows, want %d", b.seq, len(b.rows), len(want))
		}
		for r := range want {
			for c := range want[r] {
				if math.Float64bits(b.rows[r][c]) != math.Float64bits(want[r][c]) {
					t.Fatalf("block %d row %d col %d: %v != %v", b.seq, r, c, b.rows[r][c], want[r][c])
				}
			}
		}
	}
}

// startListener runs a CoordListener on a loopback port and returns it.
// watermarks returns the coordinator's acked (applied, durable)
// watermarks as c last saw them, and c's last assigned block sequence.
func watermarks(c *SiteConn) (applied, durable, lastSeq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied, c.durable, c.lastSeq
}

func startListener(t *testing.T, addr string, h Handler) *CoordListener {
	t.Helper()
	l, err := NewCoordListener(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	go l.Serve()
	return l
}

func testSiteConfig(addr string) SiteConfig {
	return SiteConfig{
		Addr:        addr,
		Site:        0,
		Tracker:     "t",
		DialTimeout: 2 * time.Second,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
}

// TestSiteStreamBasic: a clean stream delivers every block exactly once
// and the endpoint counters move.
func TestSiteStreamBasic(t *testing.T) {
	h := newMemHandler(true)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()

	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const blocks, rowsPer, dim = 50, 4, 3
	for seq := uint64(1); seq <= blocks; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	verifyLog(t, h, 0, blocks, rowsPer, dim)
	if dups := h.dupCount(); dups != 0 {
		t.Fatalf("%d duplicate blocks on a clean stream", dups)
	}
	if got := l.Stats().FramesIn.Load(); got < blocks+1 {
		t.Fatalf("listener decoded %d frames, want ≥ %d", got, blocks+1)
	}
	if c.Stats().BytesOut.Load() == 0 || l.Stats().BytesOut.Load() == 0 {
		t.Fatal("byte counters did not move")
	}
	applied, durable, last := watermarks(c)
	if applied != blocks || durable != blocks || last != blocks {
		t.Fatalf("watermarks %d/%d/%d, want %d across", applied, durable, last, blocks)
	}
}

// TestSiteWindowBackpressure: with the coordinator stalled, SendBlock
// admits exactly Window blocks and then waits.
func TestSiteWindowBackpressure(t *testing.T) {
	h := newMemHandler(true)
	h.gate = make(chan struct{})
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()

	cfg := testSiteConfig(l.Addr())
	cfg.Window = 4
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const blocks, rowsPer, dim = 10, 2, 3
	var sent atomic.Int64
	go func() {
		for seq := uint64(1); seq <= blocks; seq++ {
			if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
				return
			}
			sent.Add(1)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < int64(cfg.Window) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would overshoot here if the window leaked
	if got := sent.Load(); got != int64(cfg.Window) {
		t.Fatalf("sender admitted %d blocks against a window of %d", got, cfg.Window)
	}

	close(h.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for sent.Load() < blocks && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	verifyLog(t, h, 0, blocks, rowsPer, dim)
}

// TestSiteReconnectBackoff: a site started before its coordinator keeps
// retrying with backoff and delivers everything once the coordinator
// appears.
func TestSiteReconnectBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c, err := Dial(testSiteConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().DialErrors.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Stats().DialErrors.Load() < 2 {
		t.Fatal("site did not retry the dead address")
	}

	h := newMemHandler(true)
	l := startListener(t, addr, h)
	defer l.Close()

	const blocks, rowsPer, dim = 20, 3, 2
	for seq := uint64(1); seq <= blocks; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	verifyLog(t, h, 0, blocks, rowsPer, dim)
}

// TestSiteRejected: a handshake rejection is terminal — no retry storm,
// and every entry point reports the coordinator's reason.
func TestSiteRejected(t *testing.T) {
	h := newMemHandler(true)
	h.rejectHello = errors.New("tracker not found")
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()

	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.Err(), ErrRejected) {
		t.Fatalf("Err() = %v, want ErrRejected", c.Err())
	}
	if err := c.SendBlock([][]float64{{1}}); !errors.Is(err, ErrRejected) {
		t.Fatalf("SendBlock after rejection: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Drain(ctx); !errors.Is(err, ErrRejected) {
		t.Fatalf("Drain after rejection: %v", err)
	}
}

// TestCoordinatorRestartResume: kill the coordinator after a checkpoint,
// restart it from that checkpoint, and the site's retained blocks above
// the durable watermark rebuild the exact full stream.
func TestCoordinatorRestartResume(t *testing.T) {
	h1 := newMemHandler(false)
	l1 := startListener(t, "127.0.0.1:0", h1)
	addr := l1.Addr()

	c, err := Dial(testSiteConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rowsPer, dim = 3, 4
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	for seq := uint64(1); seq <= 30; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ck := h1.checkpoint() // durable watermark now covers 1..30

	// Blocks 31..50 are applied and acked but never checkpointed: the
	// site must keep them.
	for seq := uint64(31); seq <= 50; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	l1.Close() // coordinator dies; everything after the checkpoint is lost

	h2 := ck.restore(false)
	l2 := startListener(t, addr, h2)
	defer l2.Close()

	for seq := uint64(51); seq <= 60; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	verifyLog(t, h2, 0, 60, rowsPer, dim)
	if got := c.Stats().Retransmits.Load(); got < 20 {
		t.Fatalf("retransmitted %d blocks, want ≥ 20 (blocks 31..50)", got)
	}
}

// TestListenerIgnoresGarbage: a connection that never speaks the
// protocol is dropped without disturbing real sessions.
func TestListenerIgnoresGarbage(t *testing.T) {
	h := newMemHandler(true)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()

	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	raw.Close()

	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendBlock(blockForSeq(1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	verifyLog(t, h, 0, 1, 2, 2)
}
