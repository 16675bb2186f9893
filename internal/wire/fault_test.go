package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultProxy sits between a SiteConn and a CoordListener and mangles the
// site→coordinator stream frame by frame: forward, duplicate, drop,
// split into tiny writes, stall, or sever the connection mid-frame.
// Coordinator→site traffic (acks, broadcasts) passes through untouched.
// Only row-block and msg-block frames are faulted, so the handshake always
// completes and every fault lands on the path the resume machinery must
// heal. A proxy built without faults forwards every frame, and sever cuts
// its connections on demand.
type faultProxy struct {
	t      *testing.T
	ln     net.Listener
	target string
	seed   int64
	faulty bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connSeq atomic.Int64
	dups    atomic.Int64
	drops   atomic.Int64
	splits  atomic.Int64
	stalls  atomic.Int64
	severs  atomic.Int64
}

func newFaultProxy(t *testing.T, target string, seed int64, faulty bool) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{t: t, ln: ln, target: target, seed: seed, faulty: faulty, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

func (p *faultProxy) close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// sever closes every proxied connection and keeps accepting.
func (p *faultProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
	p.severs.Add(1)
}

func (p *faultProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *faultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *faultProxy) acceptLoop() {
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
		if !p.track(site) || !p.track(coord) {
			site.Close()
			coord.Close()
			return
		}
		rng := rand.New(rand.NewSource(p.seed + p.connSeq.Add(1)))
		p.wg.Add(1)
		go p.pipe(site, coord, rng)
	}
}

// pipe relays one proxied connection, applying faults to site→coord
// frames. Closing either end tears the pair down; the site reconnects
// through a fresh accepted connection.
func (p *faultProxy) pipe(site, coord net.Conn, rng *rand.Rand) {
	defer p.wg.Done()
	defer p.untrack(site)
	defer p.untrack(coord)
	defer site.Close()
	defer coord.Close()

	p.wg.Add(1)
	go func() { // acks back to the site, unmangled
		defer p.wg.Done()
		io.Copy(site, coord)
		site.Close()
	}()

	hdr := make([]byte, HeaderSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(site, hdr); err != nil {
			return
		}
		plen := binary.LittleEndian.Uint32(hdr[4:8])
		if plen > MaxPayload {
			return
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(site, payload); err != nil {
			return
		}
		frame := append(append([]byte(nil), hdr...), payload...)

		if k := Kind(hdr[3]); !p.faulty || (k != KindRowBlock && k != KindMsgBlock) {
			if _, err := coord.Write(frame); err != nil {
				return
			}
			continue
		}
		switch roll := rng.Intn(100); {
		case roll < 70: // forward
			if _, err := coord.Write(frame); err != nil {
				return
			}
		case roll < 80: // duplicate: coordinator must dedup on seq
			p.dups.Add(1)
			if _, err := coord.Write(frame); err != nil {
				return
			}
			if _, err := coord.Write(frame); err != nil {
				return
			}
		case roll < 88: // split into 7-byte writes: framing must reassemble
			p.splits.Add(1)
			for off := 0; off < len(frame); off += 7 {
				end := min(off+7, len(frame))
				if _, err := coord.Write(frame[off:end]); err != nil {
					return
				}
			}
		case roll < 94: // stall, then deliver
			p.stalls.Add(1)
			time.Sleep(10 * time.Millisecond)
			if _, err := coord.Write(frame); err != nil {
				return
			}
		case roll < 97: // drop: coordinator sees a gap, errors, site resumes
			p.drops.Add(1)
		default: // sever mid-frame: half a block then a dead socket
			p.severs.Add(1)
			coord.Write(frame[:len(frame)/2])
			return
		}
	}
}

// TestFaultInjectionExactlyOnce streams hundreds of blocks through the
// fault proxy and requires the coordinator's applied log to be exactly
// the sent stream — every block once, in order, bit-identical — with
// the site healing every injected failure via reconnect + watermark
// resume.
func TestFaultInjectionExactlyOnce(t *testing.T) {
	h := newMemHandler(true)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	p := newFaultProxy(t, l.Addr(), 42, true)
	defer p.close()

	cfg := testSiteConfig(p.addr())
	cfg.DialTimeout = 500 * time.Millisecond
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const blocks, rowsPer, dim = 200, 4, 3
	for seq := uint64(1); seq <= blocks; seq++ {
		if err := c.SendBlock(blockForSeq(seq, rowsPer, dim)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain through fault proxy: %v (faults: %d dup %d drop %d split %d stall %d sever)",
			err, p.dups.Load(), p.drops.Load(), p.splits.Load(), p.stalls.Load(), p.severs.Load())
	}

	verifyLog(t, h, 0, blocks, rowsPer, dim)

	faulted := p.dups.Load() + p.drops.Load() + p.splits.Load() + p.stalls.Load() + p.severs.Load()
	if faulted == 0 {
		t.Fatal("proxy injected no faults; the test proved nothing")
	}
	if p.severs.Load()+p.drops.Load() > 0 && c.Stats().Connects.Load() < 2 {
		t.Fatalf("stream was severed but the site never reconnected (connects=%d)", c.Stats().Connects.Load())
	}
	t.Logf("faults: %d dup, %d drop, %d split, %d stall, %d sever; %d reconnects, %d retransmits, %d dedups",
		p.dups.Load(), p.drops.Load(), p.splits.Load(), p.stalls.Load(), p.severs.Load(),
		c.Stats().Connects.Load()-1, c.Stats().Retransmits.Load(), h.dupCount())
}

// msgsForSeq generates the deterministic msg-block a test site sends as
// block seq, so any process can reproduce what it must contain.
func msgsForSeq(site int, seq uint64) []Msg {
	rng := rand.New(rand.NewSource(int64(seq)*7919 + int64(site)))
	ms := make([]Msg, 1+rng.Intn(4))
	for i := range ms {
		ms[i] = Msg{Kind: uint8(rng.Intn(3)), Site: site, Elem: rng.Uint64(), Value: rng.NormFloat64()}
		if rng.Intn(2) == 0 {
			ms[i].Vec = randRows(rng, 1, 1+rng.Intn(5))[0]
		}
	}
	return ms
}

// verifyMsgLog requires the handler to hold exactly msg-blocks 1..n of
// site's stream, in order, bit-identical to msgsForSeq — every block
// applied exactly once.
func verifyMsgLog(t *testing.T, h *memHandler, site int, n uint64) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	next := uint64(1)
	for _, b := range h.log {
		if b.site != site {
			continue
		}
		if b.seq != next {
			t.Fatalf("site %d: applied seq %d, want %d", site, b.seq, next)
		}
		want := msgsForSeq(site, b.seq)
		if len(b.msgs) != len(want) {
			t.Fatalf("site %d block %d: %d messages, want %d", site, b.seq, len(b.msgs), len(want))
		}
		for i, w := range want {
			g := b.msgs[i]
			if g.Kind != w.Kind || g.Site != w.Site || g.Elem != w.Elem ||
				math.Float64bits(g.Value) != math.Float64bits(w.Value) || !sameBits(g.Vec, w.Vec) {
				t.Fatalf("site %d block %d message %d: %+v, want %+v", site, b.seq, i, g, w)
			}
		}
		next++
	}
	if next != n+1 {
		t.Fatalf("site %d: applied %d blocks, want %d", site, next-1, n)
	}
}

// TestFaultInjectionMsgBlocksExactlyOnce is TestFaultInjectionExactlyOnce
// for a stream of msg-blocks: every block applied once, in order, bit for
// bit, through duplicates, drops, splits, stalls and severed connections.
func TestFaultInjectionMsgBlocksExactlyOnce(t *testing.T) {
	h := newMemHandler(true)
	l := startListener(t, "127.0.0.1:0", h)
	defer l.Close()
	p := newFaultProxy(t, l.Addr(), 43, true)
	defer p.close()

	cfg := testSiteConfig(p.addr())
	cfg.DialTimeout = 500 * time.Millisecond
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const blocks = 200
	for seq := uint64(1); seq <= blocks; seq++ {
		if err := c.SendMsgs(msgsForSeq(0, seq)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain through fault proxy: %v", err)
	}

	verifyMsgLog(t, h, 0, blocks)
	if p.severs.Load()+p.drops.Load() == 0 || c.Stats().Connects.Load() < 2 {
		t.Fatalf("the stream was never cut (%d severs, %d drops, %d connects); the test proved nothing",
			p.severs.Load(), p.drops.Load(), c.Stats().Connects.Load())
	}
	t.Logf("faults: %d dup, %d drop, %d split, %d stall, %d sever; %d reconnects, %d retransmits, %d dedups",
		p.dups.Load(), p.drops.Load(), p.splits.Load(), p.stalls.Load(), p.severs.Load(),
		c.Stats().Connects.Load()-1, c.Stats().Retransmits.Load(), h.dupCount())
}

// bcastHandler is memHandler behind a listener that broadcasts the head of
// every msg-block it applies to all of the tracker's sites, as a node
// coordinator does.
type bcastHandler struct {
	*memHandler
	l *CoordListener
}

func (h *bcastHandler) MsgBlock(tracker string, site int, seq uint64, msgs []Msg) (uint64, uint64, error) {
	a, d, err := h.memHandler.MsgBlock(tracker, site, seq, msgs)
	if err == nil {
		h.l.Broadcast(tracker, msgs[:1])
	}
	return a, d, err
}

// startBcastListener serves a bcastHandler on loopback; Serve's result
// arrives on the returned channel.
func startBcastListener(t *testing.T) (*bcastHandler, chan error) {
	t.Helper()
	h := &bcastHandler{memHandler: newMemHandler(true)}
	l, err := NewCoordListener("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	h.l = l
	served := make(chan error, 1)
	go func() { served <- l.Serve() }()
	return h, served
}

// TestBroadcastSurvivesSeveredSite kills one site's connection twice while
// three sites stream msg-blocks and every applied block is broadcast to all
// three. Broadcasts to the dead connection fail, and that must cost nothing
// but that site's connection: every block of every site is applied exactly
// once, the other two never reconnect, and every site hears broadcasts.
func TestBroadcastSurvivesSeveredSite(t *testing.T) {
	h, _ := startBcastListener(t)
	defer h.l.Close()
	p := newFaultProxy(t, h.l.Addr(), 7, false)
	defer p.close()

	const sites, blocks = 3, 300
	var heard [sites]atomic.Int64
	conns := make([]*SiteConn, sites)
	for s := range conns {
		cfg := testSiteConfig(h.l.Addr())
		if s == 0 {
			cfg.Addr = p.addr()
		}
		cfg.Site = s
		cfg.Recv = func([]Msg) error { heard[s].Add(1); return nil }
		c, err := Dial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[s] = c
	}
	var wg sync.WaitGroup
	errs := make(chan error, sites)
	for s, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= blocks; seq++ {
				if err := c.SendMsgs(msgsForSeq(s, seq)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, at := range []uint64{blocks / 3, 2 * blocks / 3} {
		for _, _, last := watermarks(conns[0]); last < at; _, _, last = watermarks(conns[0]) {
			time.Sleep(50 * time.Microsecond)
		}
		p.sever()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for s, c := range conns {
		if err := c.Drain(ctx); err != nil {
			t.Fatalf("site %d: drain: %v", s, err)
		}
		verifyMsgLog(t, h.memHandler, s, blocks)
		if heard[s].Load() == 0 {
			t.Fatalf("site %d heard no broadcast", s)
		}
	}
	if n := conns[0].Stats().Connects.Load(); n < 2 {
		t.Fatalf("site 0 connected %d times; the sever never landed", n)
	}
	for s := 1; s < sites; s++ {
		if n := conns[s].Stats().Connects.Load(); n != 1 {
			t.Fatalf("site %d connected %d times: another site's failure broke its stream", s, n)
		}
	}
}

// TestListenerCloseWhileBroadcasting closes a listener while four sites
// stream msg-blocks, every applied block is broadcast back to all of them,
// and the sites redial as soon as they are dropped. Close must return with
// every serving goroutine gone, Serve must report ErrClosed, and a second
// Close is a no-op. Run with -race.
func TestListenerCloseWhileBroadcasting(t *testing.T) {
	for round := 0; round < 20; round++ {
		h, served := startBcastListener(t)
		var wg sync.WaitGroup
		conns := make([]*SiteConn, 4)
		for s := range conns {
			cfg := testSiteConfig(h.l.Addr())
			cfg.Site = s
			cfg.Recv = func([]Msg) error { return nil }
			c, err := Dial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			conns[s] = c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := uint64(1); c.SendMsgs(msgsForSeq(s, seq)) == nil; seq++ {
				}
			}()
		}
		for applied := 0; applied < 20; {
			time.Sleep(100 * time.Microsecond)
			h.mu.Lock()
			applied = len(h.log)
			h.mu.Unlock()
		}
		if err := h.l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.l.Close(); err != nil {
			t.Fatalf("second Close: %v, want a no-op", err)
		}
		if err := <-served; !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Serve returned %v after Close, want ErrClosed", round, err)
		}
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	}
}
