package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/wire"
)

// TCP transport: the coordinator runs a CoordinatorServer; each site runs
// a SiteClient that dials in, registers with a hello frame, streams its
// reports, and receives estimate broadcasts on the same connection.
// Framing is the internal/wire codec — length-prefixed, CRC-checked
// msg-block frames carrying whole batches, so a site's blocked outbox
// (BatchSender) crosses the network as one frame instead of one gob
// message per row. (The original gob transport survives in
// tcp_oracle_test.go as the behavioral oracle the port is tested
// against.)

// toWireMsg converts a runtime message to its frame record.
func toWireMsg(m Message) wire.Msg {
	return wire.Msg{Kind: uint8(m.Kind), Site: m.Site, Elem: m.Elem, Value: m.Value, Vec: m.Vec}
}

// fromWireMsg converts a decoded frame record to a runtime message,
// copying the vector out of the decoder's pooled buffer: handlers are
// allowed to retain Vec (the P3 coordinator keeps sampled rows), so they
// must never see borrowed storage.
func fromWireMsg(w wire.Msg) Message {
	m := Message{Kind: MsgKind(w.Kind), Site: w.Site, Elem: w.Elem, Value: w.Value}
	if w.Vec != nil {
		m.Vec = append([]float64(nil), w.Vec...)
	}
	return m
}

// CoordinatorServer accepts site connections and pumps their messages
// into a CoordinatorHandler. Its Send method (wired as the coordinator's
// broadcast Sender) fans a message out to every connected site.
type CoordinatorServer struct {
	ln net.Listener

	mu      sync.Mutex
	conns   map[int]*connWriter //distlint:guarded-by mu
	closed  bool                //distlint:guarded-by mu
	handler CoordinatorHandler  //distlint:guarded-by mu

	wg sync.WaitGroup
}

// connWriter serializes frame writes on one connection.
type connWriter struct {
	mu      sync.Mutex
	enc     *wire.Encoder
	c       net.Conn
	scratch [1]wire.Msg //distlint:guarded-by mu
}

func (w *connWriter) write(m Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.scratch[0] = toWireMsg(m)
	return w.enc.MsgBlock(w.scratch[:])
}

// NewCoordinatorServer listens on addr (e.g. "127.0.0.1:0").
// Wire the returned server's Send as the coordinator's broadcast Sender,
// then call SetHandler and Serve.
func NewCoordinatorServer(addr string) (*CoordinatorServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: listen: %w", err)
	}
	return &CoordinatorServer{ln: ln, conns: make(map[int]*connWriter)}, nil
}

// Addr returns the bound listen address.
func (s *CoordinatorServer) Addr() string { return s.ln.Addr().String() }

// SetHandler installs the coordinator logic; must be called before Serve.
func (s *CoordinatorServer) SetHandler(h CoordinatorHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// Send implements Sender: broadcast to every connected site.
func (s *CoordinatorServer) Send(m Message) error {
	s.mu.Lock()
	writers := make([]*connWriter, 0, len(s.conns))
	for _, w := range s.conns {
		writers = append(writers, w)
	}
	s.mu.Unlock()
	var firstErr error
	for _, w := range writers {
		if err := w.write(m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Serve accepts connections until Close; it returns nil after a clean
// shutdown. Call it on its own goroutine.
func (s *CoordinatorServer) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("node: accept: %w", err)
		}
		// Count the conn under mu, where Close sets closed before it waits:
		// an Add after that Wait has begun is a WaitGroup misuse, so a conn
		// Accept hands over once Close has started is closed unserved.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		s.mu.Unlock()
		//distlint:lifecycle serveConn exits when its conn closes (peer or
		// Close); Close waits on wg.
		go s.serveConn(conn)
	}
}

func (s *CoordinatorServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	dec := wire.NewDecoder(conn, nil)
	writer := &connWriter{enc: wire.NewEncoder(conn, nil), c: conn}

	// First frame must be the site registration.
	f, err := dec.Next()
	if err != nil || f.Kind != wire.KindHello {
		conn.Close()
		return
	}
	site := f.Hello.Site
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[site] = writer
	h := s.handler
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		if s.conns[site] == writer {
			delete(s.conns, site)
		}
		s.mu.Unlock()
		conn.Close()
	}()

	for {
		f, err := dec.Next()
		if err != nil || f.Kind != wire.KindMsgBlock {
			return // EOF, teardown, or protocol breach
		}
		if h == nil {
			continue
		}
		for _, wm := range f.Msgs {
			if err := h.Handle(fromWireMsg(wm)); err != nil {
				return
			}
		}
	}
}

// Close stops accepting, closes all site connections and waits for the
// per-connection goroutines to drain.
func (s *CoordinatorServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*connWriter, 0, len(s.conns))
	for _, w := range s.conns {
		conns = append(conns, w)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, w := range conns {
		w.c.Close()
	}
	s.wg.Wait()
	return err
}

// SiteClient connects a site state machine to a remote coordinator. It
// implements BatchSender: a blocked site's whole outbox ships as one
// msg-block frame.
type SiteClient struct {
	conn net.Conn

	wmu     sync.Mutex
	enc     *wire.Encoder //distlint:guarded-by wmu
	scratch []wire.Msg    //distlint:guarded-by wmu

	mu     sync.Mutex
	closed bool  //distlint:guarded-by mu
	rerr   error //distlint:guarded-by mu
	done   chan struct{}
}

var _ BatchSender = (*SiteClient)(nil)

// DialSite connects to the coordinator at addr, registers site id, and
// starts the broadcast receive loop delivering into recv (nil discards
// broadcasts). The returned client's Send/SendAll is the Sender to hand
// the site state machine.
func DialSite(addr string, id int, recv BroadcastReceiver) (*SiteClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: dial %s: %w", addr, err)
	}
	c := &SiteClient{
		conn: conn,
		enc:  wire.NewEncoder(conn, nil),
		done: make(chan struct{}),
	}
	c.wmu.Lock()
	err = c.enc.Hello(wire.Hello{Site: id})
	c.wmu.Unlock()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("node: register site %d: %w", id, err)
	}
	//distlint:lifecycle readLoop exits when conn closes; Close waits on
	// done.
	go c.readLoop(recv)
	return c, nil
}

func (c *SiteClient) readLoop(recv BroadcastReceiver) {
	defer close(c.done)
	dec := wire.NewDecoder(c.conn, nil)
	for {
		f, err := dec.Next()
		if err != nil {
			c.mu.Lock()
			if !c.closed && !errors.Is(err, io.EOF) {
				c.rerr = err
			}
			c.mu.Unlock()
			return
		}
		if f.Kind != wire.KindMsgBlock || recv == nil {
			continue
		}
		for _, wm := range f.Msgs {
			if err := recv.HandleBroadcast(fromWireMsg(wm)); err != nil {
				c.mu.Lock()
				c.rerr = err
				c.mu.Unlock()
				return
			}
		}
	}
}

// Send implements Sender: site → coordinator, one message per frame.
func (c *SiteClient) Send(m Message) error {
	return c.SendAll([]Message{m})
}

// SendAll implements BatchSender: the whole outbox in one frame.
func (c *SiteClient) SendAll(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if cap(c.scratch) < len(ms) {
		c.scratch = make([]wire.Msg, len(ms))
	}
	batch := c.scratch[:len(ms)]
	for i, m := range ms {
		batch[i] = toWireMsg(m)
	}
	return c.enc.MsgBlock(batch)
}

// Close tears the connection down and waits for the receive loop.
func (c *SiteClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// Err returns the receive loop's terminal error, if any (nil after a
// clean Close or remote EOF).
func (c *SiteClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rerr
}
