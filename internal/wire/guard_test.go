package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfguard"
)

// loopReader serves a stream of whole frames over and over: an endless
// well-formed stream for steady-state timing.
type loopReader struct {
	stream []byte
	pos    int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.pos == len(r.stream) {
		r.pos = 0
	}
	n := copy(p, r.stream[r.pos:])
	r.pos += n
	return n, nil
}

// nopHandler applies nothing and reports every block durable at once: the
// transport with no tracker behind it. hold keeps the serving goroutine
// busy for as long as a tracker would be.
type nopHandler struct {
	applied atomic.Uint64
	hold    atomic.Int64 // nanoseconds per block
}

func (h *nopHandler) Hello(string, int) (uint64, uint64, error) {
	a := h.applied.Load()
	return a, a, nil
}

func (h *nopHandler) MsgBlock(_ string, _ int, seq uint64, _ []Msg) (uint64, uint64, error) {
	h.applied.Store(seq)
	return seq, seq, nil
}

func (h *nopHandler) RowBlock(_ string, _ int, seq uint64, _ [][]float64) (uint64, uint64, error) {
	for start, hold := time.Now(), time.Duration(h.hold.Load()); time.Since(start) < hold; {
	}
	h.applied.Store(seq)
	return seq, seq, nil
}

// TestWireStreamGuard is the transport's floor in `make perf-guard`, at the
// benchmark's block shape (64 × 44). Decoding a frame in steady state
// allocates nothing and is at least 1.7× as fast as the decoder it replaced
// (little-endian hosts; measured 2.2–3.0×: what is left is the CRC and two
// copies of 22.5 KB). A
// SendBlock, its write and its ack allocate no frame once the free list is
// warm. And 512 blocks streamed into a listener that is as busy per block
// as a tracker folding it in (50 µs) cost fewer than a quarter as many
// ack frames and fewer than half as many writes — a listener with nothing
// to do is rightly acked per read, so an idle handler would make the count
// a race between the two ends and not a property of either.
func TestWireStreamGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const n, dim = 64, 44
	rows := randRows(rand.New(rand.NewSource(17)), n, dim)

	var stream bytes.Buffer
	enc := NewEncoder(&stream, nil)
	for seq := uint64(1); seq <= 24; seq++ { // more than one buffer's worth
		if err := enc.RowBlock(seq, 0, dim, rows); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&loopReader{stream: stream.Bytes()}, nil)
	oracle := &oracleDecoder{r: &loopReader{stream: stream.Bytes()}}
	next := func(name string, next func() (*Frame, error)) perfguard.Body {
		return perfguard.Body{Name: name, Run: func() {
			if _, err := next(); err != nil {
				t.Fatal(err)
			}
		}}
	}
	const calls = 48
	oracleNext, decNext := next("io.ReadFull oracle", oracle.Next), next("read-ahead", dec.Next)
	for range calls { // warm both pools
		decNext.Run()
		oracleNext.Run()
	}
	if allocs := testing.AllocsPerRun(100, func() { dec.Next() }); allocs != 0 {
		t.Errorf("Decoder.Next allocates %.1f per frame in steady state", allocs)
	}
	bigEndian := binary.NativeEndian.Uint16([]byte{1, 0}) != 1
	if bigEndian {
		t.Log("big-endian host: floats are decoded by the portable loop; no speed floor")
	}
	perfguard.Hold(t, perfguard.Row{Name: fmt.Sprintf("Next on a %d×%d frame", n, dim), Ref: oracleNext, Fast: decNext,
		Floor: 1.7, Calls: calls, LogOnly: bigEndian})

	h := &nopHandler{}
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	burst := func(blocks int) {
		for i := 0; i < blocks; i++ {
			if err := c.SendBlock(rows); err != nil {
				t.Fatal(err)
			}
		}
		for a, _, last := watermarks(c); a < last && ctx.Err() == nil; a, _, last = watermarks(c) {
			runtime.Gosched() // Drain would do, but it allocates its wake-up
		}
	}
	burst(64) // fills the free list and every pool on both ends
	if allocs := testing.AllocsPerRun(50, func() { burst(8) }); allocs > 1 {
		t.Errorf("8 blocks sent, written and acked allocate %.1f times, want ≤ 1: frames are not being reused", allocs)
	}

	const blocks = 512
	h.hold.Store(int64(50 * time.Microsecond))
	acks0 := l.Stats().FramesOut.Load()
	c.mu.Lock()
	writes0 := c.writes
	c.mu.Unlock()
	for i := 0; i < blocks; i++ {
		if err := c.SendBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	acks := l.Stats().FramesOut.Load() - acks0
	c.mu.Lock()
	writes := c.writes - writes0
	c.mu.Unlock()
	t.Logf("%d blocks streamed: %d ack frames, %d writes", blocks, acks, writes)
	if perfguard.Race {
		// The detector slows the site's producer more than the listener,
		// which then runs dry — and rightly acks — between most writes.
		t.Log("race detector on: the counts are logged, not held to their floors")
		return
	}
	if acks >= blocks/4 {
		t.Errorf("%d ack frames for %d blocks, want < %d", acks, blocks, blocks/4)
	}
	if writes >= blocks/2 {
		t.Errorf("%d writes for %d blocks, want < %d", writes, blocks, blocks/2)
	}
}
