package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pipeSession serves one in-memory connection with the real serveConn and
// shakes hands on it. A net.Pipe write returns once the other end has read
// all of it and a read takes everything one write offers, so the test
// decides exactly which frames are buffered together.
type pipeSession struct {
	t      *testing.T
	client net.Conn
	enc    *Encoder
	dec    *Decoder
}

// pipeConn starts serveConn on one end of a net.Pipe and returns the other.
func pipeConn(t *testing.T, h Handler) net.Conn {
	t.Helper()
	l := &CoordListener{h: h, conns: make(map[net.Conn]*ackReader)}
	server, client := net.Pipe()
	l.wg.Add(1)
	go l.serveConn(server)
	t.Cleanup(func() {
		client.Close()
		l.wg.Wait()
	})
	_ = client.SetDeadline(time.Now().Add(10 * time.Second)) // a wrong ack rule hangs; fail instead
	return client
}

func servePipe(t *testing.T, h Handler) *pipeSession {
	t.Helper()
	client := pipeConn(t, h)
	s := &pipeSession{t: t, client: client, enc: NewEncoder(client, nil), dec: NewDecoder(client, nil)}
	if err := s.enc.Hello(Hello{Site: 0, Tracker: "t"}); err != nil {
		t.Fatal(err)
	}
	if f := s.next(); f.Kind != KindHelloAck {
		t.Fatalf("handshake answered with %v", f.Kind)
	}
	return s
}

func (s *pipeSession) next() *Frame {
	s.t.Helper()
	f, err := s.dec.Next()
	if err != nil {
		s.t.Fatalf("reading the coordinator's next frame: %v", err)
	}
	return f
}

// deliver hands the blocks seqs name to the coordinator in a single write.
func (s *pipeSession) deliver(seqs ...uint64) {
	var burst bytes.Buffer
	enc := NewEncoder(&burst, nil)
	for _, seq := range seqs {
		if err := enc.RowBlock(seq, 0, 3, blockForSeq(seq, 2, 3)); err != nil {
			s.t.Fatal(err)
		}
	}
	go s.client.Write(burst.Bytes()) // returns once the coordinator has read it
}

func seqRange(lo, hi uint64) []uint64 {
	var seqs []uint64
	for s := lo; s <= hi; s++ {
		seqs = append(seqs, s)
	}
	return seqs
}

// TestAckRule: blocks that arrive buffered together are acked every
// ackEvery and once more when the buffer runs dry — cumulatively, in order,
// and with nothing in between; a block that arrives alone is acked alone.
func TestAckRule(t *testing.T) {
	for _, k := range []uint64{1, ackEvery - 1, ackEvery, ackEvery + 1, 3*ackEvery + 5} {
		s := servePipe(t, newMemHandler(true))
		s.deliver(seqRange(1, k)...)
		var want []uint64
		for a := uint64(ackEvery); a < k; a += ackEvery {
			want = append(want, a)
		}
		want = append(want, k, k+1) // k+1: the lone block sent below
		for i, applied := range want {
			if applied == k+1 {
				// Had anything else been written behind ack k, it would
				// be read here in place of this block's ack.
				s.deliver(k + 1)
			}
			f := s.next()
			if f.Kind != KindAck || f.Ack != (Ack{Applied: applied, Durable: applied}) {
				t.Fatalf("%d blocks in one write: frame %d is %v %+v, want ack %d", k, i, f.Kind, f.Ack, applied)
			}
		}
	}
}

// TestAckPrecedesError: when a block fails with acks still owed, the site
// first learns how far the coordinator got.
func TestAckPrecedesError(t *testing.T) {
	s := servePipe(t, newMemHandler(true))
	s.deliver(1, 2, 3, 5) // 5 is a sequence gap
	if f := s.next(); f.Kind != KindAck || f.Ack.Applied != 3 {
		t.Fatalf("first frame %v %+v, want ack 3", f.Kind, f.Ack)
	}
	if f := s.next(); f.Kind != KindError || !strings.Contains(f.ErrMsg, "sequence gap") {
		t.Fatalf("second frame %v %q, want the gap error", f.Kind, f.ErrMsg)
	}
	if _, err := s.dec.Next(); err != io.EOF {
		t.Fatalf("after the error frame: %v, want the connection closed", err)
	}
}

// TestWindowOneStream: a site that may have one block in flight never has
// a second one buffered behind it, so every block must be acked by the
// read that waits for the next. A lost wake-up on either side hangs here.
func TestWindowOneStream(t *testing.T) {
	h := newMemHandler(true)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	cfg := testSiteConfig(l.Addr())
	cfg.Window = 1
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const blocks, rowsPer, dim = 200, 2, 3
	for seq := uint64(1); seq <= blocks; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	verifyLog(t, h, 0, blocks, rowsPer, dim)
	// The site can read the last ack before the coordinator's encoder
	// counts it (FramesOut goes up after its Write returns): wait for the
	// count, then hold it to exactly a hello-ack and an ack per block.
	for deadline := time.Now().Add(5 * time.Second); l.Stats().FramesOut.Load() < blocks+1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := l.Stats().FramesOut.Load(); got != blocks+1 {
		t.Fatalf("coordinator wrote %d frames for %d one-at-a-time blocks, want a hello-ack and an ack each", got, blocks)
	}
}

// TestDrainDurableLateCheckpoint: DrainDurable is already waiting, and its
// probes already answered with a stale watermark, when the checkpoint
// lands; the next probe's ack must still come back.
func TestDrainDurableLateCheckpoint(t *testing.T) {
	h := newMemHandler(false)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for seq := uint64(1); seq <= 11; seq++ {
		if err := c.SendBlock(blockForSeq(seq, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- c.DrainDurable(ctx) }()
	for probes := 0; probes < 2 && ctx.Err() == nil; {
		time.Sleep(time.Millisecond)
		h.mu.Lock()
		probes = h.dups
		h.mu.Unlock()
	}
	select {
	case err := <-done:
		t.Fatalf("DrainDurable returned %v before any checkpoint", err)
	default:
	}
	h.checkpoint()
	if err := <-done; err != nil {
		t.Fatalf("DrainDurable after a late checkpoint: %v", err)
	}
	if a, d, _ := c.Watermarks(); a != 11 || d != 11 {
		t.Fatalf("watermarks %d/%d, want 11/11", a, d)
	}
	verifyLog(t, h, 0, 11, 3, 4)
}

// ackFaultListener fails the failAt-th write of the first connection it
// accepts, as a broken socket would, and leaves later connections alone.
type ackFaultListener struct {
	net.Listener
	failAt int
	used   atomic.Bool
	failed atomic.Bool
}

func (l *ackFaultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.used.Swap(true) {
		return c, err
	}
	return &failWriteConn{Conn: c, l: l}, nil
}

type failWriteConn struct {
	net.Conn
	l      *ackFaultListener
	writes int // serveConn is the only writer
}

func (c *failWriteConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes >= c.l.failAt {
		c.l.failed.Store(true)
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestDeferredAckWriteError: the write of a deferred ack fails. The
// coordinator must drop the connection — not go on applying blocks nobody
// will hear about — and the site's reconnect handshake must pick the stream
// up at what was applied: every block exactly once.
func TestDeferredAckWriteError(t *testing.T) {
	h := newMemHandler(true)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &ackFaultListener{Listener: inner, failAt: 3} // hello-ack, one ack, then the failure
	l := &CoordListener{ln: fl, h: h, conns: make(map[net.Conn]*ackReader)}
	go l.Serve()
	defer l.Close()

	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const blocks, rowsPer, dim = 120, 4, 3
	for seq := uint64(1); seq <= blocks; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	verifyLog(t, h, 0, blocks, rowsPer, dim)
	if !fl.failed.Load() {
		t.Fatal("no ack write was failed; the test proved nothing")
	}
	if got := c.Stats().Connects.Load(); got < 2 {
		t.Fatalf("%d connects: the site never had to resume", got)
	}
}

// TestHeaderCannotReserveMemory: a 12-byte header is a claim, not a
// payload. Before the handshake the listener refuses any claim a Hello
// could not make; after it a claim cut short is an unexpected EOF, and a
// genuinely large block still decodes. That the buffer follows the bytes
// that arrive is frame.Reader's rule, held by its own test.
func TestHeaderCannotReserveMemory(t *testing.T) {
	claim := func(kind Kind, n uint32) []byte {
		hdr := make([]byte, HeaderSize)
		format.Seal(uint8(kind), hdr)
		hdr[4], hdr[5], hdr[6], hdr[7] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		return hdr
	}

	// Before the handshake: refused and dropped, for less than 1 MiB.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	client := pipeConn(t, newMemHandler(true))
	if _, err := client.Write(claim(KindHello, MaxPayload)); err != nil {
		t.Fatal(err)
	}
	if n, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a 64 MiB hello claim: read %d, %v; want the connection dropped", n, err)
	}
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent >= 1<<20 {
		t.Fatalf("a stalled 64 MiB claim cost %d bytes of allocation", spent)
	}
	dec := NewDecoder(bytes.NewReader(claim(KindHello, maxHelloPayload+1)), nil)
	dec.fr.SetMaxPayload(maxHelloPayload)
	if _, err := dec.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("one byte past the largest hello: %v", err)
	}

	// After it: 64 MiB claimed, 300 KB sent, then silence.
	stalled := append(claim(KindRowBlock, MaxPayload), make([]byte, 300<<10)...)
	dec = NewDecoder(&chunkReader{data: stalled, rng: rand.New(rand.NewSource(1))}, nil)
	if _, err := dec.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a claim cut short: %v", err)
	}

	// A msg-block whose count claims a record per payload byte: refused
	// before the count sizes anything (it used to cost ~60× the payload).
	claimed := oversizedMsgCount(1 << 20)
	runtime.ReadMemStats(&before)
	dec = NewDecoder(bytes.NewReader(claimed), nil)
	if _, err := dec.Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("a msg-block count past its records: %v", err)
	}
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent >= 4<<20 {
		t.Fatalf("a 1 MiB msg-block's count cost %d bytes of allocation", spent)
	}

	// A real 1 MiB block, behind a small one so that it starts mid-buffer.
	rows := randRows(rand.New(rand.NewSource(2)), 1<<10, 1<<7)
	var stream bytes.Buffer
	enc := NewEncoder(&stream, nil)
	if err := enc.RowBlock(1, 0, 3, blockForSeq(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := enc.RowBlock(2, 0, 1<<7, rows); err != nil {
		t.Fatal(err)
	}
	dec = NewDecoder(&chunkReader{data: stream.Bytes(), rng: rand.New(rand.NewSource(3))}, nil)
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if !sameBits(f.Block.Rows[i], row) {
			t.Fatalf("row %d of the 1 MiB block differs", i)
		}
	}
}

// oversizedMsgCount is a sealed msg-block of n zero payload bytes whose
// count claims n records: the most a count bounded by the payload's bytes
// let through.
func oversizedMsgCount(n int) []byte {
	buf := make([]byte, HeaderSize+n)
	binary.LittleEndian.PutUint32(buf[HeaderSize+8:], uint32(n))
	format.Seal(uint8(KindMsgBlock), buf)
	return buf
}
