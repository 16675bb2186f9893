package wire

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
)

// Handler is the coordinator-side sink a CoordListener feeds. Both
// methods return the stream's cumulative watermarks; an error turns into
// an Error frame and drops the connection (the site reconnects and
// resumes from the watermarks it was last acked).
//
// Calls for one connection are sequential; calls across connections are
// concurrent, so implementations synchronize their own state.
type Handler interface {
	// Hello opens (or resumes) the (tracker, site) stream and returns
	// the watermarks the site should resume from.
	Hello(tracker string, site int) (applied, durable uint64, err error)

	// RowBlock applies one numbered block. Implementations must drop
	// seq ≤ applied as a duplicate (returning current watermarks) and
	// reject gaps (seq > applied+1) with an error.
	RowBlock(tracker string, site int, seq uint64, rows [][]float64) (applied, durable uint64, err error)

	// MsgBlock applies one numbered block of protocol messages under
	// RowBlock's rules, in the same seq space. The messages and their
	// vectors are the decoder's, valid only until MsgBlock returns.
	MsgBlock(tracker string, site int, seq uint64, msgs []Msg) (applied, durable uint64, err error)
}

// helloTimeout bounds how long an accepted connection may sit silent
// before its handshake; it keeps port scanners from pinning goroutines.
const helloTimeout = 30 * time.Second

// CoordListener accepts SiteConn streams and feeds their blocks to a
// Handler. One goroutine serves each connection: it reads a Hello,
// answers with the handler's watermarks, then applies blocks and acks
// them cumulatively — the newest watermarks go out whenever the
// connection must be read for more input, and at the latest every
// ackEvery blocks. Sequential per-connection handling means a slow handler
// backpressures the site through TCP and the site's in-flight window —
// there is no unbounded queue between socket and tracker. Broadcast
// writes the other way, to every connection of a tracker.
type CoordListener struct {
	ln    net.Listener
	h     Handler
	stats Stats

	mu sync.Mutex
	//distlint:guarded-by mu
	conns map[net.Conn]*ackReader
	//distlint:guarded-by mu
	closed bool
	wg     sync.WaitGroup
}

// NewCoordListener listens on addr (e.g. ":9070" or "127.0.0.1:0") and
// serves handler. Call Serve to accept; Addr for the bound address.
func NewCoordListener(addr string, h Handler) (*CoordListener, error) {
	if h == nil {
		return nil, fmt.Errorf("wire: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &CoordListener{ln: ln, h: h, conns: make(map[net.Conn]*ackReader)}, nil
}

// Addr returns the bound listen address.
func (l *CoordListener) Addr() string { return l.ln.Addr().String() }

// Stats exposes the listener's aggregate frame/byte counters.
func (l *CoordListener) Stats() *Stats { return &l.stats }

// Serve accepts connections until Close. It always returns a non-nil
// error; after Close that error is ErrClosed.
func (l *CoordListener) Serve() error {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return err
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		l.conns[conn] = nil // no broadcasts before the handshake
		l.wg.Add(1)
		l.mu.Unlock()
		//distlint:lifecycle serveConn exits when its conn is closed, by
		// the peer or by Close; Close waits on wg.
		go l.serveConn(conn)
	}
}

// Close stops accepting, drops every live connection, and waits for the
// per-connection goroutines to exit. Idempotent.
func (l *CoordListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return err
}

// broadcastTimeout bounds one broadcast write: a site that stops reading
// loses its connection rather than stalling the coordinator.
const broadcastTimeout = 5 * time.Second

// Broadcast writes msgs as one unnumbered (seq 0) msg-block to every
// connection of tracker that has finished its handshake. It is best
// effort: a connection whose write fails is closed, and its site resumes
// with the stale broadcast state it holds — P2's site half only needs its
// estimate to be a lower bound, never a current one —
// so a failed write never fails, or replays, the block that caused it.
func (l *CoordListener) Broadcast(tracker string, msgs []Msg) {
	l.mu.Lock()
	var to []*ackReader
	for _, a := range l.conns {
		if a != nil && a.tracker == tracker {
			to = append(to, a)
		}
	}
	l.mu.Unlock()
	for _, a := range to {
		a.mu.Lock()
		_ = a.conn.SetWriteDeadline(time.Now().Add(broadcastTimeout))
		err := a.enc.MsgBlock(0, msgs)
		_ = a.conn.SetWriteDeadline(time.Time{})
		a.mu.Unlock()
		if err != nil {
			a.conn.Close()
		}
	}
}

// ackEvery bounds how many applied blocks one deferred ack may cover: a
// quarter of the default cap on a site's window, and half its floor, so
// that a site always has a second ack interval in flight behind the one
// being acked. With small frames a whole window arrives in one read, and
// acking only when the buffer runs dry would stall the site for a round
// trip per window.
const ackEvery = 8

// maxHelloPayload is the largest payload a well-formed Hello can have, and
// all the listener lets a peer announce before it has shaken hands.
const maxHelloPayload = 4 + 4 + 2 + math.MaxUint16

// ackReader is the connection as the decoder reads it. The decoder reads
// only when it has consumed every buffered frame, so the ack owed for the
// blocks applied since the last one is written here, before the read can
// block: an idle socket is fully acked, and buffered blocks share an ack.
// Every frame after the handshake is written under mu, which Broadcast
// takes too.
type ackReader struct {
	conn    net.Conn
	tracker string
	mu      sync.Mutex
	enc     *Encoder //distlint:guarded-by mu
	ack     Ack      // newest watermarks
	owed    int      // blocks applied since the last ack was written
}

// Read writes the owed ack, then reads the connection.
//
//distlint:hotpath
func (a *ackReader) Read(p []byte) (int, error) {
	if err := a.flush(); err != nil {
		return 0, err
	}
	return a.conn.Read(p)
}

// flush writes the owed ack, if any.
func (a *ackReader) flush() error {
	if a.owed == 0 {
		return nil
	}
	a.owed = 0
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.enc.Ack(a.ack)
}

// fail ends the connection with an Error frame, behind the ack for
// whatever was applied before it: the site's watermarks never trail the
// tracker's.
func (a *ackReader) fail(msg string) {
	if a.flush() == nil {
		a.mu.Lock()
		_ = a.enc.Error(msg)
		a.mu.Unlock()
	}
}

// serveConn runs one connection: handshake, then the block/ack loop.
func (l *CoordListener) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		l.wg.Done()
	}()

	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	enc := NewEncoder(conn, &l.stats)
	acks := &ackReader{conn: conn, enc: enc}
	dec := NewDecoder(acks, &l.stats)
	dec.fr.SetMaxPayload(maxHelloPayload)

	f, err := dec.Next()
	if err != nil || f.Kind != KindHello {
		return // not our protocol; drop silently
	}
	tracker, site := f.Hello.Tracker, f.Hello.Site
	applied, durable, err := l.h.Hello(tracker, site)
	if err != nil {
		_ = enc.Error(err.Error())
		return
	}
	if err := enc.HelloAck(HelloAck{Applied: applied, Durable: durable}); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	dec.fr.SetMaxPayload(frame.MaxPayload)
	acks.tracker = tracker
	l.mu.Lock()
	l.conns[conn] = acks // Broadcast may write from here on
	l.mu.Unlock()

	for {
		f, err := dec.Next()
		if err != nil {
			return
		}
		switch f.Kind {
		case KindRowBlock:
			if f.Block.Site != site {
				acks.fail(fmt.Sprintf("wire: block for site %d on site %d's connection", f.Block.Site, site))
				return
			}
			applied, durable, err = l.h.RowBlock(tracker, site, f.Block.Seq, f.Block.Rows)
		case KindMsgBlock:
			applied, durable, err = l.h.MsgBlock(tracker, site, f.Seq, f.Msgs)
		default:
			err = fmt.Errorf("wire: unexpected %v frame", f.Kind)
		}
		if err != nil {
			acks.fail(err.Error())
			return
		}
		acks.ack = Ack{Applied: applied, Durable: durable}
		acks.owed++
		if acks.owed >= ackEvery && acks.flush() != nil {
			return
		}
	}
}
