package node

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// estimator is a site whose broadcast state a test can read.
type estimator interface {
	BroadcastReceiver
	Estimate() float64
}

// historian is a coordinator whose broadcasts a test can read.
type historian interface {
	CoordinatorHandler
	EstimateHistory() []float64
}

// wireDeployment is a coordinator served by ListenWire on loopback and m
// sites dialed into it with DialWire.
type wireDeployment[C historian, S estimator] struct {
	coord C
	ln    *wire.CoordListener
	sites []S
	conns []*wire.SiteConn
}

func testWireConfig(addr string, site int) wire.SiteConfig {
	return wire.SiteConfig{Addr: addr, Site: site, DialTimeout: 2 * time.Second, MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
}

func startWire[C historian, S estimator](t *testing.T, m int, newCoord func(Sender) (C, error), newSite func(id int, out Sender) (S, error)) *wireDeployment[C, S] {
	t.Helper()
	coord, ln, err := ListenWire("127.0.0.1:0", newCoord)
	if err != nil {
		t.Fatal(err)
	}
	go ln.Serve()
	d := &wireDeployment[C, S]{coord: coord, ln: ln}
	t.Cleanup(func() {
		for _, c := range d.conns {
			c.Close()
		}
		ln.Close()
	})
	for id := 0; id < m; id++ {
		site, conn, err := DialWire(testWireConfig(ln.Addr(), id), func(out Sender) (S, error) { return newSite(id, out) })
		if err != nil {
			t.Fatal(err)
		}
		d.sites = append(d.sites, site)
		d.conns = append(d.conns, conn)
	}
	return d
}

// quiesce waits until the coordinator has applied everything every site
// sent and every site holds the newest broadcast: the state an in-process
// cluster is in when its Feed returns.
func (d *wireDeployment[C, S]) quiesce(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, c := range d.conns {
		if err := c.Drain(ctx); err != nil {
			t.Fatalf("site %d: drain: %v", i, err)
		}
	}
	hist := d.coord.EstimateHistory()
	if len(hist) == 0 {
		return
	}
	for i, s := range d.sites {
		for s.Estimate() != hist[len(hist)-1] {
			if ctx.Err() != nil {
				t.Fatalf("site %d holds %v, the coordinator last broadcast %v", i, s.Estimate(), hist[len(hist)-1])
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// TestTCPMatrixDeployment runs matrix P2 over internal/wire on loopback in
// lock step with LocalMatCluster: quiesced after every row, the coordinator
// must have received the same messages and issued the same broadcasts, and
// end with the same F̂ and Gram, bit for bit — the transport adds
// sequence numbers and acks, never a message. The deployment also keeps
// the covariance guarantee with fewer messages than rows.
func TestTCPMatrixDeployment(t *testing.T) {
	const m, eps, d = 3, 0.2, 44
	local, err := NewLocalMatCluster(m, eps, d)
	if err != nil {
		t.Fatal(err)
	}
	dep := startWire(t, m,
		func(b Sender) (*MatCoordinator, error) { return NewMatCoordinator(m, eps, d, b) },
		func(id int, out Sender) (*MatSite, error) { return NewMatSite(id, m, eps, d, out) })

	rows := gen.LowRankMatrix(gen.PAMAPLike(600))
	for i, r := range rows {
		if err := local.Feed(i%m, r); err != nil {
			t.Fatal(err)
		}
		if err := dep.sites[i%m].HandleRow(r); err != nil {
			t.Fatal(err)
		}
		dep.quiesce(t)
		if w, l := dep.coord.Received(), local.Coordinator.Received(); w != l {
			t.Fatalf("row %d: received %d over the wire, %d in process", i, w, l)
		}
		if w, l := dep.coord.Broadcasts(), local.Coordinator.Broadcasts(); w != l {
			t.Fatalf("row %d: %d broadcasts over the wire, %d in process", i, w, l)
		}
	}
	if !sameBits(dep.coord.EstimateHistory(), local.Coordinator.EstimateHistory()) {
		t.Fatalf("broadcast F̂ %v over the wire, %v in process", dep.coord.EstimateHistory(), local.Coordinator.EstimateHistory())
	}
	if !sameBits(dep.coord.Gram().RawData(), local.Coordinator.Gram().RawData()) {
		t.Fatal("the Gram over the wire differs from the in-process one")
	}

	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	e, err := metrics.CovarianceError(exact, dep.coord.Gram())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows: %d messages, %d broadcasts, covariance error %.4g", len(rows), dep.coord.Received(), dep.coord.Broadcasts(), e)
	if got := dep.coord.Received(); e > eps || got == 0 || got >= int64(len(rows)) {
		t.Fatalf("covariance error %v (ε = %v) from %d messages for %d rows", e, eps, got, len(rows))
	}
}

// TestTCPHHDeployment is the same lock step for heavy-hitters P2 against
// LocalHHCluster: received, broadcasts and Ŵ after every item, and every
// element's estimate at the end, bit for bit, within the guarantee.
func TestTCPHHDeployment(t *testing.T) {
	const m, eps = 3, 0.1
	local, err := NewLocalHHCluster(m, eps)
	if err != nil {
		t.Fatal(err)
	}
	dep := startWire(t, m,
		func(b Sender) (*HHCoordinator, error) { return NewHHCoordinator(m, eps, b) },
		func(id int, out Sender) (*HHSite, error) { return NewHHSite(id, m, eps, out) })

	cfg := gen.DefaultZipfConfig(1500)
	cfg.Beta = 10
	items := gen.ZipfStream(cfg)
	for i, it := range items {
		if err := local.Feed(i%m, it.Elem, it.Weight); err != nil {
			t.Fatal(err)
		}
		if err := dep.sites[i%m].HandleItem(it.Elem, it.Weight); err != nil {
			t.Fatal(err)
		}
		dep.quiesce(t)
		if w, l := dep.coord.Received(), local.Coordinator.Received(); w != l {
			t.Fatalf("item %d: received %d over the wire, %d in process", i, w, l)
		}
		if w, l := dep.coord.Broadcasts(), local.Coordinator.Broadcasts(); w != l {
			t.Fatalf("item %d: %d broadcasts over the wire, %d in process", i, w, l)
		}
		if w, l := dep.coord.EstimateTotal(), local.Coordinator.EstimateTotal(); math.Float64bits(w) != math.Float64bits(l) {
			t.Fatalf("item %d: Ŵ = %v over the wire, %v in process", i, w, l)
		}
	}
	t.Logf("%d items: %d messages, %d broadcasts", len(items), dep.coord.Received(), dep.coord.Broadcasts())
	w := gen.TotalWeight(items)
	for e, fe := range gen.ExactFrequencies(items) {
		got, want := dep.coord.Estimate(e), local.Coordinator.Estimate(e)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("element %d: %v over the wire, %v in process", e, got, want)
		}
		if math.Abs(got-fe) > eps*w {
			t.Fatalf("element %d: |%v − %v| > εW", e, got, fe)
		}
	}
}

// keeper is a coordinator that keeps every message it is handed, vectors
// included.
type keeper struct {
	mu  sync.Mutex
	got []Message
}

func (k *keeper) Handle(m Message) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.got = append(k.got, m)
	return nil
}

// tap is a site that only sends.
type tap struct{ out Sender }

func (tap) HandleBroadcast(Message) error { return nil }

// TestWireTransportVecRetention streams row messages to a coordinator that
// keeps their vectors, and requires every kept vector intact once later
// frames have been decoded: handlers get storage of their own, never a
// view into the decoder's reused buffers.
func TestWireTransportVecRetention(t *testing.T) {
	k := &keeper{}
	_, ln, err := ListenWire("127.0.0.1:0", func(Sender) (*keeper, error) { return k, nil })
	if err != nil {
		t.Fatal(err)
	}
	go ln.Serve()
	defer ln.Close()
	site, conn, err := DialWire(testWireConfig(ln.Addr(), 0), func(out Sender) (tap, error) { return tap{out}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var sent []Message
	for b := 0; b < 100; b++ {
		batch := make([]Message, 3)
		for i := range batch {
			vec := make([]float64, 1+(b+i)%7)
			for j := range vec {
				vec[j] = float64(b*1000+i*10+j) + 0.25
			}
			batch[i] = Message{Kind: KindRow, Vec: vec}
		}
		sent = append(sent, batch...)
		if err := site.out.(BatchSender).SendAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := conn.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.got) != len(sent) {
		t.Fatalf("kept %d messages, sent %d", len(k.got), len(sent))
	}
	for i := range sent {
		if !sameBits(k.got[i].Vec, sent[i].Vec) {
			t.Fatalf("message %d: kept %v, sent %v", i, k.got[i].Vec, sent[i].Vec)
		}
	}
}

// TestWireHalfAppliedBlockEndsStream sends a block whose second message
// the coordinator refuses. The first is applied once, and the site's
// stream ends for good: a retransmit would apply it again.
func TestWireHalfAppliedBlockEndsStream(t *testing.T) {
	coord, ln, err := ListenWire("127.0.0.1:0", func(b Sender) (*MatCoordinator, error) { return NewMatCoordinator(2, 0.2, 3, b) })
	if err != nil {
		t.Fatal(err)
	}
	go ln.Serve()
	defer ln.Close()
	c, err := wire.Dial(testWireConfig(ln.Addr(), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendMsgs([]wire.Msg{{Kind: uint8(KindTotal), Site: 1, Value: 1}, {Kind: uint8(KindElement), Site: 1}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); !errors.Is(err, wire.ErrRejected) {
		t.Fatalf("drain after a half-applied block: %v, want the stream rejected", err)
	}
	if got := coord.Received(); got != 1 {
		t.Fatalf("coordinator received %d messages, want the block's head once", got)
	}
}

// TestWireHandlerSequenceRules holds the coordinator adapter to RowBlock's
// rules: a duplicate is acked and dropped, a gap refused, and a block with
// another site's message refused before any of it is applied.
func TestWireHandlerSequenceRules(t *testing.T) {
	k := &keeper{}
	h := &wireHandler{coord: k, applied: make(map[int]uint64), failed: make(map[int]error)}
	msg := []wire.Msg{{Kind: uint8(KindTotal), Site: 2, Value: 1}}
	for _, step := range []struct {
		seq     uint64
		msgs    []wire.Msg
		applied uint64
		ok      bool
	}{
		{1, msg, 1, true},
		{1, msg, 1, true},  // duplicate
		{3, msg, 0, false}, // gap
		{2, append(msg, wire.Msg{Site: 1}), 0, false},
		{2, msg, 2, true},
	} {
		a, d, err := h.MsgBlock("", 2, step.seq, step.msgs)
		if (err == nil) != step.ok || a != step.applied || d != a {
			t.Fatalf("seq %d: watermarks %d/%d, error %v", step.seq, a, d, err)
		}
	}
	if len(k.got) != 2 {
		t.Fatalf("coordinator handled %d messages, want 2", len(k.got))
	}
	if a, _, err := h.Hello("", 2); a != 2 || err != nil {
		t.Fatalf("hello resumes at %d (%v), want 2", a, err)
	}
}
