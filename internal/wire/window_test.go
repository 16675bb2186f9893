package wire

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// roundTrips acks blocks one at a time, each after rtt, until rounds round
// trips have ended; when limited, the sender keeps the window full and
// waits on it, else it sends only what the acks free.
func roundTrips(w *window, next *uint64, rounds int, limited bool, rtt func(cwnd int) time.Duration) {
	for n := 0; n < rounds; {
		*next++
		if *next >= w.roundEnd {
			n++
		}
		w.limited = limited
		w.sample(*next, *next+uint64(w.cwnd), rtt(w.cwnd))
	}
}

// TestWindowRule drives Vegas's rule without a socket: a coordinator that
// spends 8 µs a block behind a 40 µs path, and a 10 ms path with no queue.
func TestWindowRule(t *testing.T) {
	queueing := func(cwnd int) time.Duration { return 40*time.Microsecond + time.Duration(cwnd)*8*time.Microsecond }
	long := func(int) time.Duration { return 10 * time.Millisecond }
	empty := func(int) time.Duration { return 40 * time.Microsecond }

	t.Run("a queue shrinks it to the floor", func(t *testing.T) {
		w := newWindow(32)
		var next uint64
		roundTrips(&w, &next, 1, true, empty) // an empty pipe: the base
		roundTrips(&w, &next, 40, true, queueing)
		if w.cwnd != 2*ackEvery {
			t.Fatalf("window %d under a queue, want the floor %d", w.cwnd, 2*ackEvery)
		}
	})
	t.Run("a long round trip grows it to the cap", func(t *testing.T) {
		w := newWindow(32)
		w.cwnd = w.floor
		var next uint64
		roundTrips(&w, &next, 20, true, long)
		if w.cwnd != 32 {
			t.Fatalf("window %d on a 10 ms path, want the cap 32", w.cwnd)
		}
	})
	t.Run("a sender that never fills it leaves it", func(t *testing.T) {
		for _, start := range []int{2 * ackEvery, 24} {
			w := newWindow(32)
			w.cwnd = start
			var next uint64
			roundTrips(&w, &next, 1, false, empty)
			roundTrips(&w, &next, 20, false, long)
			roundTrips(&w, &next, 20, false, queueing)
			if w.cwnd != start {
				t.Fatalf("window %d after rounds the sender never filled, want %d", w.cwnd, start)
			}
		}
	})
	t.Run("a slower path is measured again", func(t *testing.T) {
		w := newWindow(32)
		var next uint64
		roundTrips(&w, &next, 10, true, empty)
		// The path's round trip grows to 10 ms: at first that reads as a
		// queue, until the 40 µs minimum leaves the horizon.
		roundTrips(&w, &next, 2*baseRounds+20, true, long)
		if w.cwnd != 32 {
			t.Fatalf("window %d after %d rounds on the slower path, want the cap 32", w.cwnd, 2*baseRounds+20)
		}
	})
	t.Run("a small window is fixed", func(t *testing.T) {
		for _, limit := range []int{1, 8, 2 * ackEvery} {
			w := newWindow(limit)
			var next uint64
			roundTrips(&w, &next, 1, true, empty)
			roundTrips(&w, &next, 20, true, queueing)
			roundTrips(&w, &next, 20, true, long)
			if w.cwnd != limit {
				t.Fatalf("Window %d moved to %d", limit, w.cwnd)
			}
		}
	})
}

// TestWindowSettlesAtBusyCoordinator: into a listener that holds each block
// for 50 µs, a stream keeps no more than 2·ackEvery + vegasBeta blocks in
// flight once it has settled, so a Drain after a burst waits for no more
// than that many blocks — where a fixed window keeps all 32 in flight.
func TestWindowSettlesAtBusyCoordinator(t *testing.T) {
	h := &nopHandler{}
	h.hold.Store(int64(50 * time.Microsecond))
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	c, err := Dial(testSiteConfig(l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	rows := randRows(rand.New(rand.NewSource(5)), 4, 3)
	for range 8 { // single blocks through an empty pipe measure the path
		if err := c.SendBlock(rows); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	const blocks = 1024
	for i := 0; i < blocks; i++ {
		if err := c.SendBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	applied, _, last := watermarks(c)
	window := c.Stats().Window.Load()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	const most = 2*ackEvery + vegasBeta
	t.Logf("after %d blocks: %d in flight, window %d", blocks, last-applied, window)
	if last-applied > most {
		t.Errorf("%d blocks in flight after the burst, want ≤ %d", last-applied, most)
	}
	if window > most {
		t.Errorf("window %d after the burst, want ≤ %d", window, most)
	}
}

// delayProxy relays TCP connections to target, delaying every byte by
// delay in each direction without serialising them: a long, fast path.
type delayProxy struct {
	ln     net.Listener
	target string
	delay  time.Duration
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newDelayProxy(t *testing.T, target string, delay time.Duration) *delayProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProxy{ln: ln, target: target, delay: delay}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *delayProxy) addr() string { return p.ln.Addr().String() }

// close stops accepting, cuts every relayed connection and waits for the
// relays to exit.
func (p *delayProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *delayProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		site, err := p.ln.Accept()
		if err != nil {
			return
		}
		coord, err := net.Dial("tcp", p.target)
		if err != nil {
			site.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, site, coord)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.relay(coord, site)
		go p.relay(site, coord)
	}
}

// chunk is one read of a relayed direction and when it may be written on.
type chunk struct {
	b   []byte
	due time.Time
}

// relay copies src to dst, each read written delay after it arrived. The
// queue holds what is in flight on the path; 1024 reads is far more than
// a test's window puts there.
func (p *delayProxy) relay(dst, src net.Conn) {
	defer p.wg.Done()
	q := make(chan chunk, 1024)
	go func() {
		defer close(q)
		for {
			b := make([]byte, 64<<10)
			n, err := src.Read(b)
			if n > 0 {
				q <- chunk{b[:n], time.Now().Add(p.delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range q {
		time.Sleep(time.Until(c.due))
		if _, err := dst.Write(c.b); err != nil {
			src.Close()
			break
		}
	}
	dst.Close()
	for range q { // let the reader finish
	}
}

// TestWindowFillsLongRoundTrip: on a path with a 20 ms round trip and an
// idle coordinator, a window started at its floor grows to the cap, and
// then streams as fast as a window fixed at the cap. A loaded host wakes
// the proxy's timers late, which reads as a queue of a block or two; the
// window is held to within vegasBeta of the cap, not to the cap itself.
func TestWindowFillsLongRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	h := &nopHandler{}
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	p := newDelayProxy(t, l.Addr(), 10*time.Millisecond)
	defer p.close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rows := randRows(rand.New(rand.NewSource(6)), 4, 3)
	stream := func(c *SiteConn, blocks int) time.Duration {
		start := time.Now()
		for i := 0; i < blocks; i++ {
			if err := c.SendBlock(rows); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	dial := func(fixed bool) *SiteConn {
		c, err := Dial(testSiteConfig(p.addr()))
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		if fixed {
			c.win.floor = c.win.ceil
		} else {
			c.win.cwnd = c.win.floor
		}
		c.mu.Unlock()
		return c
	}
	const limit, most = 32, 32 - vegasBeta

	// Growing from 16 to 32 takes 16 round trips and 376 blocks.
	c := dial(false)
	defer c.Close()
	grow := stream(c, 640)
	if got := c.Stats().Window.Load(); got < most {
		t.Fatalf("window %d after 640 blocks on a 20 ms round trip, want the cap %d", got, limit)
	}
	const blocks = 320
	adaptive := stream(c, blocks)
	window := c.Stats().Window.Load()
	c.Close()

	f := dial(true)
	defer f.Close()
	fixed := stream(f, blocks)
	t.Logf("on a 20 ms round trip: 640 blocks in %v growing from the floor, then %d in %v at window %d; %v at a fixed window of %d",
		grow, blocks, adaptive, window, fixed, limit)
	if adaptive > fixed*5/4 {
		t.Errorf("the grown window took %v for %d blocks, a fixed window of %d %v", adaptive, blocks, limit, fixed)
	}
	if window < most {
		t.Errorf("window fell to %d at the cap's pace", window)
	}
}
