package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// SiteConfig configures a SiteConn.
type SiteConfig struct {
	// Addr is the coordinator's wire listen address (host:port).
	Addr string
	// Site is this connection's site id.
	Site int
	// Tracker names the coordinator tracker this site feeds.
	Tracker string

	// Window bounds blocks in flight: SendBlock waits once
	// lastSeq − applied reaches it (default 32). This is the
	// backpressure coupling — a slow or partitioned coordinator stalls
	// the feeder instead of buffering unboundedly. Acks are cumulative
	// and may trail the blocks applied by up to 8 while more input is
	// buffered behind them; an idle connection is acked at once, so a
	// smaller window still makes progress but pipelines less.
	Window int

	// Retain bounds blocks held for retransmit above the durable
	// watermark (default 4096). SendBlock waits when full; coordinator
	// checkpoints advance durable and drain it.
	Retain int

	// DialTimeout bounds one dial+handshake attempt (default 5s).
	DialTimeout time.Duration
	// MinBackoff and MaxBackoff bound the exponential reconnect backoff
	// (defaults 50ms and 5s).
	MinBackoff time.Duration
	MaxBackoff time.Duration

	// Logf, when set, receives connection lifecycle lines. Default: silent.
	Logf func(format string, args ...any)

	// Recv, when set, receives the msg-blocks the coordinator broadcasts,
	// on the connection's read goroutine; the messages are the decoder's,
	// valid only until Recv returns, and an error drops the connection.
	// Without it a msg-block is an unexpected frame.
	Recv func([]Msg) error
}

func (c SiteConfig) withDefaults() SiteConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.Retain <= 0 {
		c.Retain = 4096
	}
	if c.Retain < c.Window {
		c.Retain = c.Window
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// pblock is one retained block: its sealed frame, built once by SendBlock.
// The writer and every retransmit send these bytes; nothing writes to a
// frame while it is in pending.
type pblock struct {
	seq   uint64
	frame []byte
}

// SiteConn is the site end of a coordinator stream: a persistent
// connection with a bounded in-flight window, exponential-backoff
// reconnect, and at-least-once resume from the coordinator's acked
// watermarks. One goroutine at a time may call SendBlock or SendMsgs;
// the other methods are safe from any.
type SiteConn struct {
	cfg   SiteConfig
	stats Stats

	mu   sync.Mutex
	cond *sync.Cond
	// pending retains blocks above the durable watermark, ascending seq.
	//distlint:guarded-by mu
	pending []pblock
	//distlint:guarded-by mu
	sendIdx int // next pending index the writer transmits
	//distlint:guarded-by mu
	lastSeq uint64 // last assigned block seq
	//distlint:guarded-by mu
	sentSeq uint64 // highest seq ever transmitted (retransmit accounting)
	// writeLo..writeHi are the seqs the writer is transmitting right now
	// (empty when writeHi is 0): their frames must not be recycled.
	//distlint:guarded-by mu
	writeLo, writeHi uint64
	//distlint:guarded-by mu
	writes int64 // batches handed to the connection; the perf guard reads it
	// free holds the frames of pruned blocks for SendBlock to build the
	// next ones in, at most Window of them.
	//distlint:guarded-by mu
	free [][]byte
	//distlint:guarded-by mu
	applied uint64 // coordinator's applied watermark (monotone max)
	//distlint:guarded-by mu
	durable uint64 // coordinator's durable watermark (monotone max)
	//distlint:guarded-by mu
	dim int // row dimension, fixed by the first block
	//distlint:guarded-by mu
	conn net.Conn // live connection, nil while down
	//distlint:guarded-by mu
	ready bool // first handshake done; seq space adopted
	//distlint:guarded-by mu
	err error // terminal error (coordinator rejected the session)
	//distlint:guarded-by mu
	closed bool

	closedCh   chan struct{}
	manageDone chan struct{}
}

// Dial starts a site connection. It returns immediately; the connection
// is established (and re-established) in the background, and SendBlock
// waits for the first successful handshake before assigning sequence
// numbers. Close releases it.
func Dial(cfg SiteConfig) (*SiteConn, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, fmt.Errorf("wire: empty coordinator address")
	}
	if cfg.Site < 0 {
		return nil, fmt.Errorf("wire: negative site id %d", cfg.Site)
	}
	c := &SiteConn{
		cfg:        cfg,
		closedCh:   make(chan struct{}),
		manageDone: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.manage()
	return c, nil
}

// Stats exposes the connection's traffic and session counters.
func (c *SiteConn) Stats() *Stats { return &c.stats }

// Err returns the terminal error, if any: a coordinator handshake
// rejection (wrapped ErrRejected). Transient connection failures are
// retried, not reported here.
func (c *SiteConn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Watermarks returns the coordinator's acked (applied, durable)
// watermarks as last seen, and the last assigned block sequence.
func (c *SiteConn) Watermarks() (applied, durable, lastSeq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied, c.durable, c.lastSeq
}

// SendBlock queues one block of rows for delivery. It waits while the
// in-flight window or the retransmit retention is full (backpressure),
// or until the first handshake completes; it does not wait for this
// block's ack — use Drain for an end-of-stream barrier. Rows are encoded
// before it returns, so the caller may reuse them. All rows must share the
// dimension of the first block sent.
func (c *SiteConn) SendBlock(rows [][]float64) error {
	if len(rows) == 0 {
		return nil
	}
	dim := len(rows[0])
	if dim == 0 {
		return malformedf("empty row")
	}
	for i, r := range rows {
		if len(r) != dim {
			return malformedf("row %d has %d entries, block dimension is %d", i, len(r), dim)
		}
	}

	c.mu.Lock()
	if c.dim == 0 {
		c.dim = dim
	}
	if dim != c.dim {
		want := c.dim
		c.mu.Unlock()
		return malformedf("block dimension %d, stream dimension %d", dim, want)
	}
	seq, buf, err := c.reserveLocked()
	if err != nil {
		return err
	}
	frame, err := rowBlockFrame(buf, seq, c.cfg.Site, dim, rows)
	return c.commit(seq, frame, err)
}

// SendMsgs queues one block of node-runtime messages, encoded before it
// returns, under SendBlock's window, retention, resume and sequence space;
// one goroutine at a time sends either kind.
func (c *SiteConn) SendMsgs(msgs []Msg) error {
	if len(msgs) == 0 {
		return nil
	}
	c.mu.Lock()
	seq, buf, err := c.reserveLocked()
	if err != nil {
		return err
	}
	frame, err := msgBlockFrame(buf, seq, msgs)
	return c.commit(seq, frame, err)
}

// reserveLocked waits until the window and the retention have room and
// the first handshake is done, then releases c.mu and returns the next seq
// and a frame buffer to build it in. One goroutine sends and the handshake
// is past, so nothing else assigns seqs: the block is encoded unlocked.
//
//distlint:caller-holds mu
func (c *SiteConn) reserveLocked() (seq uint64, buf []byte, err error) {
	for !c.closed && c.err == nil &&
		(!c.ready || c.lastSeq-c.applied >= uint64(c.cfg.Window) || len(c.pending) >= c.cfg.Retain) {
		c.cond.Wait()
	}
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	if c.err != nil {
		return 0, nil, c.err
	}
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	return c.lastSeq + 1, buf, nil
}

// commit queues the sealed frame of block seq, unless building it failed,
// and wakes the writer.
func (c *SiteConn) commit(seq uint64, frame []byte, err error) error {
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.lastSeq = seq
	c.pending = append(c.pending, pblock{seq: seq, frame: frame})
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// Drain waits until every queued block has been acked as applied (or ctx
// expires, the connection closes, or the session fails terminally).
func (c *SiteConn) Drain(ctx context.Context) error {
	return c.waitWatermark(ctx, false)
}

// DrainDurable waits until every queued block is covered by a
// coordinator checkpoint — after it returns, this process can exit and a
// coordinator restart still restores the full stream.
func (c *SiteConn) DrainDurable(ctx context.Context) error {
	return c.waitWatermark(ctx, true)
}

// durableProbeInterval paces DrainDurable's watermark probes: how often
// a fully-applied stream re-asks the coordinator whether a checkpoint
// has covered it yet.
const durableProbeInterval = 100 * time.Millisecond

// waitWatermark blocks until the chosen watermark reaches lastSeq.
func (c *SiteConn) waitWatermark(ctx context.Context, durable bool) error {
	stop := context.AfterFunc(ctx, func() { c.cond.Broadcast() })
	defer stop()
	if durable {
		// Acks only flow in response to blocks, so once the last block is
		// applied nothing would ever report the durable watermark
		// advancing. Probe for it while this wait is live.
		stopc := make(chan struct{})
		defer close(stopc)
		//distlint:lifecycle probeDurable exits when stopc closes below.
		go c.probeDurable(stopc)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.err != nil {
			return c.err
		}
		mark := c.applied
		if durable {
			mark = c.durable
		}
		if mark >= c.lastSeq {
			return nil
		}
		if c.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		c.cond.Wait()
	}
}

// Close tears the connection down. Queued-but-unacked blocks are
// abandoned — Drain first for a graceful end of stream. Idempotent.
func (c *SiteConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	close(c.closedCh)
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-c.manageDone
	return nil
}

// manage owns the connection lifecycle: dial + handshake with
// exponential backoff, epoch installation (watermark adoption and the
// retransmit cursor), a writer goroutine per epoch, and the inline ack
// read loop. It exits on Close or a terminal handshake rejection.
func (c *SiteConn) manage() {
	defer close(c.manageDone)
	backoff := c.cfg.MinBackoff
	for {
		select {
		case <-c.closedCh:
			return
		default:
		}
		conn, dec, hs, err := c.connect()
		if err != nil {
			c.stats.DialErrors.Add(1)
			if c.terminal(err) {
				return
			}
			c.cfg.Logf("wire: site %d: %v (retrying in %v)", c.cfg.Site, err, backoff)
			if !c.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > c.cfg.MaxBackoff {
				backoff = c.cfg.MaxBackoff
			}
			continue
		}
		backoff = c.cfg.MinBackoff
		c.stats.Connects.Add(1)

		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.advanceLocked(hs.Applied, hs.Durable)
		if !c.ready && len(c.pending) == 0 {
			// Fresh sender: adopt the coordinator's sequence space so a
			// restarted site continues the stream instead of colliding
			// with already-applied sequence numbers.
			c.lastSeq = hs.Applied
			c.sentSeq = hs.Applied
		}
		// Position the retransmit cursor at the first block the
		// coordinator has not applied; everything from there is (re)sent.
		c.sendIdx = 0
		retrans := 0
		for c.sendIdx < len(c.pending) && c.pending[c.sendIdx].seq <= hs.Applied {
			c.sendIdx++
		}
		for i := c.sendIdx; i < len(c.pending); i++ {
			if c.pending[i].seq <= c.sentSeq {
				retrans++
			}
		}
		c.conn = conn
		c.ready = true
		c.cond.Broadcast()
		c.mu.Unlock()
		if retrans > 0 {
			c.stats.Retransmits.Add(int64(retrans))
			c.cfg.Logf("wire: site %d: reconnected, retransmitting %d blocks above seq %d",
				c.cfg.Site, retrans, hs.Applied)
		}

		writerDone := make(chan struct{})
		go c.writeLoop(conn, writerDone)
		c.readAcks(dec)

		conn.Close()
		c.mu.Lock()
		c.conn = nil
		c.cond.Broadcast()
		c.mu.Unlock()
		<-writerDone
		select {
		case <-c.closedCh:
			return
		default:
		}
	}
}

// connect runs one dial + handshake attempt.
func (c *SiteConn) connect() (net.Conn, *Decoder, HelloAck, error) {
	var hs HelloAck
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, nil, hs, fmt.Errorf("wire: dial %s: %w", c.cfg.Addr, err)
	}
	deadline := time.Now().Add(c.cfg.DialTimeout)
	_ = conn.SetDeadline(deadline)
	enc := NewEncoder(conn, &c.stats)
	if err := enc.Hello(Hello{Site: c.cfg.Site, Tracker: c.cfg.Tracker}); err != nil {
		conn.Close()
		return nil, nil, hs, err
	}
	dec := NewDecoder(conn, &c.stats)
	f, err := dec.Next()
	if err != nil {
		conn.Close()
		return nil, nil, hs, fmt.Errorf("wire: handshake: %w", err)
	}
	switch f.Kind {
	case KindHelloAck:
		hs = f.HelloAck
	case KindError:
		conn.Close()
		return nil, nil, hs, fmt.Errorf("%w: %s", ErrRejected, f.ErrMsg)
	default:
		conn.Close()
		return nil, nil, hs, malformedf("handshake answered with %v frame", f.Kind)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, dec, hs, nil
}

// terminal records a handshake rejection as the session's final state.
// Other errors are transient and retried.
func (c *SiteConn) terminal(err error) bool {
	if !errors.Is(err, ErrRejected) {
		return false
	}
	c.mu.Lock()
	c.err = err
	c.cond.Broadcast()
	c.mu.Unlock()
	c.cfg.Logf("wire: site %d: %v (terminal)", c.cfg.Site, err)
	return true
}

// writeLoop transmits pending blocks from the retransmit cursor onward,
// one epoch: it exits when the connection is torn down or the SiteConn
// closes. Each pass hands every frame behind the cursor to one vectored
// write (writev on TCP). The single-writer design keeps frames whole
// without a write lock: handshake frames are written before this
// goroutine starts, and every later frame on the connection is written here.
func (c *SiteConn) writeLoop(conn net.Conn, done chan struct{}) {
	defer close(done)
	var frames, batch net.Buffers // frames keeps the storage; WriteTo consumes batch
	for {
		c.mu.Lock()
		c.writeLo, c.writeHi = 0, 0
		for c.conn == conn && !c.closed && c.sendIdx >= len(c.pending) {
			c.cond.Wait()
		}
		if c.conn != conn || c.closed {
			c.mu.Unlock()
			return
		}
		frames = frames[:0]
		for _, b := range c.pending[c.sendIdx:] {
			frames = append(frames, b.frame)
		}
		c.writeLo, c.writeHi = c.pending[c.sendIdx].seq, c.pending[len(c.pending)-1].seq
		c.sendIdx = len(c.pending)
		if c.writeHi > c.sentSeq {
			c.sentSeq = c.writeHi
		}
		c.writes++
		c.mu.Unlock()
		batch = frames
		n, err := batch.WriteTo(conn)
		if err != nil {
			// Tear the epoch down; manage's read loop unblocks on the
			// closed connection and reconnects.
			conn.Close()
			return
		}
		c.stats.FramesOut.Add(int64(len(frames)))
		c.stats.BytesOut.Add(n)
	}
}

// readAcks consumes coordinator frames until the connection breaks,
// advancing the watermarks, waking senders and handing broadcasts to Recv.
func (c *SiteConn) readAcks(dec *Decoder) {
	for {
		f, err := dec.Next()
		if err != nil {
			return
		}
		switch f.Kind {
		case KindAck:
			c.mu.Lock()
			c.advanceLocked(f.Ack.Applied, f.Ack.Durable)
			c.mu.Unlock()
		case KindMsgBlock:
			if c.cfg.Recv == nil {
				c.cfg.Logf("wire: site %d: unexpected %v frame", c.cfg.Site, f.Kind)
				return
			}
			if err := c.cfg.Recv(f.Msgs); err != nil {
				c.cfg.Logf("wire: site %d: broadcast: %v", c.cfg.Site, err)
				return
			}
		case KindError:
			// Mid-stream protocol error (e.g. a sequence gap after frame
			// loss): drop the connection; the reconnect handshake heals
			// the stream from the coordinator's watermark.
			c.cfg.Logf("wire: site %d: coordinator error: %s", c.cfg.Site, f.ErrMsg)
			return
		default:
			c.cfg.Logf("wire: site %d: unexpected %v frame", c.cfg.Site, f.Kind)
			return
		}
	}
}

// advanceLocked folds newly acked watermarks in (monotone max), prunes
// durable blocks from the retention buffer, and wakes waiters. A pruned
// frame goes to the free list unless the writer holds it: an ack can
// overtake the write that carries later blocks of the same batch, and the
// durable probe re-sends a block that is already acked.
//
//distlint:caller-holds mu
func (c *SiteConn) advanceLocked(applied, durable uint64) {
	if applied > c.applied {
		c.applied = applied
	}
	if durable > c.durable {
		c.durable = durable
	}
	drop := 0
	for drop < len(c.pending) && c.pending[drop].seq <= c.durable {
		b := c.pending[drop]
		if len(c.free) < c.cfg.Window && (b.seq < c.writeLo || b.seq > c.writeHi) {
			c.free = append(c.free, b.frame)
		}
		drop++
	}
	if drop > 0 {
		rest := copy(c.pending, c.pending[drop:])
		clear(c.pending[rest:]) // release retained row storage
		c.pending = c.pending[:rest]
		c.sendIdx -= drop
		if c.sendIdx < 0 {
			c.sendIdx = 0
		}
	}
	c.cond.Broadcast()
}

// probeDurable periodically re-sends the newest retained block while a
// DrainDurable waits and the stream is otherwise idle (every queued
// block sent and applied, but not yet checkpoint-covered). The
// coordinator drops the duplicate and its ack carries the current
// watermarks — the only way an idle stream learns a checkpoint landed.
func (c *SiteConn) probeDurable(stopc chan struct{}) {
	t := time.NewTicker(durableProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-c.closedCh:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.ready && c.conn != nil &&
			len(c.pending) > 0 && c.sendIdx == len(c.pending) &&
			c.applied >= c.pending[len(c.pending)-1].seq {
			c.sendIdx-- // writeLoop re-sends the last block as the probe
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// sleep waits for d or until Close, reporting whether the connection is
// still open.
func (c *SiteConn) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closedCh:
		return false
	}
}
