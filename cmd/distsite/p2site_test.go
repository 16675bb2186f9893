package main

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/wire"
)

// twin is a message-mode deployment joined in process: m site wrappers and
// a coordinator half, each step's messages delivered at once and each
// broadcast folded into every site before the next block.
type twin struct {
	sites      []*p2Site
	coord      *core.P2Coordinator
	received   int64
	broadcasts int64
	history    []float64
}

func newTwin(t *testing.T, m int, eps float64, d int) *twin {
	t.Helper()
	w := &twin{coord: core.NewP2Coordinator(m, eps, d)}
	for id := 0; id < m; id++ {
		s, err := newP2Site(id, m, eps, d)
		if err != nil {
			t.Fatal(err)
		}
		w.sites = append(w.sites, s)
	}
	return w
}

func (w *twin) feed(t *testing.T, site int, rows [][]float64) {
	t.Helper()
	out, err := w.sites[site].step(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range out {
		w.received++
		if m.Kind == wire.MsgRow {
			w.coord.Row(m.Vec)
			continue
		}
		if fhat, due := w.coord.Scalar(m.Value); due {
			w.broadcasts++
			w.history = append(w.history, fhat)
			for _, s := range w.sites {
				if err := s.recv([]wire.Msg{{Kind: wire.MsgEstimate, Value: fhat}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// wireSite is a site wrapper dialed into a distserve tracker, recording the
// F̂ broadcasts it hears.
type wireSite struct {
	*p2Site
	conn *wire.SiteConn

	mu    sync.Mutex
	heard []float64 //distlint:guarded-by mu
}

func (s *wireSite) heardCopy() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.heard...)
}

// TestTCPMatrixDeployment runs message mode over loopback in lock step with
// the in-process twin: m distsite site wrappers stream to a service
// tracker through WireBridge, and after every block — once every site holds
// the newest broadcast — the tracker has received the same messages and
// issued the same broadcasts as the twin's coordinator; at the end the
// sites heard the twin's F̂ history, and the tracker holds its F̂ and Gram,
// bit for bit. The deployment keeps the covariance guarantee with fewer
// messages than rows.
func TestTCPMatrixDeployment(t *testing.T) {
	const m, eps, d, block = 3, 0.2, 44, 8
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	tr, err := mgr.Create("lock", service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: m, Epsilon: eps, Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wire.NewCoordListener("127.0.0.1:0", mgr.WireBridge())
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetWireListener(l)
	go l.Serve()
	defer l.Close()

	tw := newTwin(t, m, eps, d)
	sites := make([]*wireSite, m)
	for id := range sites {
		half, err := newP2Site(id, m, eps, d)
		if err != nil {
			t.Fatal(err)
		}
		s := &wireSite{p2Site: half}
		s.conn, err = wire.Dial(wire.SiteConfig{
			Addr: l.Addr(), Site: id, Tracker: "lock",
			DialTimeout: 2 * time.Second, MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
			Recv: func(msgs []wire.Msg) error {
				s.mu.Lock()
				for _, m := range msgs {
					s.heard = append(s.heard, m.Value)
				}
				s.mu.Unlock()
				return s.recv(msgs)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.conn.Close()
		sites[id] = s
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	quiesce := func() {
		t.Helper()
		for i, s := range sites {
			if err := s.conn.Drain(ctx); err != nil {
				t.Fatalf("site %d: drain: %v", i, err)
			}
			for int64(len(s.heardCopy())) < tw.broadcasts {
				if ctx.Err() != nil {
					t.Fatalf("site %d heard %d broadcasts, the twin issued %d", i, len(s.heardCopy()), tw.broadcasts)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}

	rows := gen.LowRankMatrix(gen.PAMAPLike(600))
	for b, i := 0, 0; i < len(rows); b, i = b+1, i+block {
		blk := rows[i:min(i+block, len(rows))]
		site := b % m
		tw.feed(t, site, blk)
		out, err := sites[site].step(blk)
		if err == nil {
			err = sites[site].conn.SendMsgs(out)
		}
		if err != nil {
			t.Fatal(err)
		}
		quiesce()
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Stats.UpMsgs != tw.received || snap.Stats.Broadcasts != tw.broadcasts {
			t.Fatalf("block %d: %d messages and %d broadcasts over the wire, %d and %d in process",
				b, snap.Stats.UpMsgs, snap.Stats.Broadcasts, tw.received, tw.broadcasts)
		}
	}
	for i, s := range sites {
		if !sameBits(s.heardCopy(), tw.history) {
			t.Fatalf("site %d heard F̂ %v, the twin broadcast %v", i, s.heardCopy(), tw.history)
		}
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(snap.Frobenius) != math.Float64bits(tw.coord.EstimateFrobenius()) {
		t.Fatalf("F̂ %v over the wire, %v in process", snap.Frobenius, tw.coord.EstimateFrobenius())
	}
	if !sameBits(snap.Gram.RawData(), tw.coord.Gram().RawData()) {
		t.Fatal("the Gram over the wire differs from the in-process one")
	}

	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	e, err := metrics.CovarianceError(exact, snap.Gram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows: %d messages, %d broadcasts, covariance error %.4g", len(rows), snap.Stats.UpMsgs, snap.Stats.Broadcasts, e)
	if got := snap.Stats.UpMsgs; e > eps || got == 0 || got >= int64(len(rows)) {
		t.Fatalf("covariance error %v (ε = %v) from %d messages for %d rows", e, eps, got, len(rows))
	}
}

// TestConcurrentSitesKeepTheBound streams from m sites at once, each on
// its own goroutine with no quiescing, so broadcasts land between blocks
// at whatever point they arrive while other sites' blocks are applied.
// Every message a site sent is applied exactly once, and the tracker keeps
// the covariance guarantee with fewer messages than rows.
func TestConcurrentSitesKeepTheBound(t *testing.T) {
	const m, eps, d, block = 4, 0.2, 44, 16
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	tr, err := mgr.Create("conc", service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: m, Epsilon: eps, Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wire.NewCoordListener("127.0.0.1:0", mgr.WireBridge())
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetWireListener(l)
	go l.Serve()
	defer l.Close()

	rows := gen.LowRankMatrix(gen.PAMAPLike(4000))
	sent := make([]int64, m)
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		s, err := newP2Site(id, m, eps, d)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := wire.Dial(wire.SiteConfig{Addr: l.Addr(), Site: id, Tracker: "conc", Recv: s.recv})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := id * block; i < len(rows); i += m * block {
				out, err := s.step(rows[i:min(i+block, len(rows))])
				if err == nil {
					err = conn.SendMsgs(out)
				}
				if err != nil {
					t.Errorf("site %d: %v", id, err)
					return
				}
				sent[id] += int64(len(out))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := conn.Drain(ctx); err != nil {
				t.Errorf("site %d: drain: %v", id, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range sent {
		total += n
	}
	if snap.Stats.UpMsgs != total {
		t.Fatalf("the tracker applied %d messages, the sites sent %d", snap.Stats.UpMsgs, total)
	}
	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	e, err := metrics.CovarianceError(exact, snap.Gram)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows from %d concurrent sites: %d messages, %d broadcasts, covariance error %.4g", len(rows), m, total, snap.Stats.Broadcasts, e)
	if e > eps || total >= int64(len(rows)) {
		t.Fatalf("covariance error %v (ε = %v) from %d messages for %d rows", e, eps, total, len(rows))
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func fastTestRows(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if matrix.NormSq(row) == 0 {
			row[0] = 1
		}
		rows[i] = row
	}
	return rows
}

// TestBroadcastMonotone folds broadcasts in out of order: a stale F̂ never
// lowers the site's, and a message that is not a finite estimate is
// refused.
func TestBroadcastMonotone(t *testing.T) {
	s, err := newP2Site(0, 2, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{100, 50} { // 50 is stale, reordered
		if err := s.recv([]wire.Msg{{Kind: wire.MsgEstimate, Value: v}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.half.Estimate(); got != 100 {
		t.Fatalf("estimate %v, want 100: a reordered broadcast must not lower it", got)
	}
	for _, bad := range []wire.Msg{
		{Kind: wire.MsgScalar, Value: 200},
		{Kind: wire.MsgEstimate, Value: math.Inf(1)},
		{Kind: wire.MsgEstimate, Value: math.NaN()},
	} {
		if err := s.recv([]wire.Msg{bad}); err == nil {
			t.Errorf("broadcast %+v accepted", bad)
		}
	}
	if got := s.half.Estimate(); got != 100 {
		t.Fatalf("estimate %v after refused broadcasts, want 100", got)
	}
}

// TestSiteFloorsEstimateAtOwnMass: before each block the site raises its
// F̂ to the squared mass of the blocks it stepped before, never counting the
// block itself, and a larger broadcast still wins.
func TestSiteFloorsEstimateAtOwnMass(t *testing.T) {
	s, err := newP2Site(0, 4, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	blk := [][]float64{{1, 2, 2}, {0, 3, 4}} // squared mass 9 + 25
	for i, want := range []float64{1, 34, 68} {
		if _, err := s.step(blk); err != nil {
			t.Fatal(err)
		}
		if got := s.half.Estimate(); got != want {
			t.Fatalf("F̂ %v after block %d, want %v", got, i+1, want)
		}
	}
	if err := s.recv([]wire.Msg{{Kind: wire.MsgEstimate, Value: 1000}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.step(blk); err != nil {
		t.Fatal(err)
	}
	if got := s.half.Estimate(); got != 1000 {
		t.Fatalf("F̂ %v after a broadcast of 1000, want the broadcast kept", got)
	}
}

// TestP2SiteShipsWhatItMust feeds a single dominant direction and checks
// the site ships it once its mass crosses the threshold.
func TestP2SiteShipsWhatItMust(t *testing.T) {
	s, err := newP2Site(0, 1, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for i := 0; i < 10; i++ {
		out, err := s.step([][]float64{{2, 0, 0}})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range out {
			if m.Kind != wire.MsgRow {
				continue
			}
			rows++
			if matrix.NormSq(m.Vec) <= 0 || m.Vec[1] != 0 || m.Vec[2] != 0 {
				t.Fatalf("shipped row %v not along e1", m.Vec)
			}
		}
	}
	if rows == 0 {
		t.Fatal("site never shipped the dominant direction")
	}
}

// TestP2SiteEigensolverFailure poisons the half's Gram: the step returns
// the half's eigendecomposition failure instead of swallowing it.
func TestP2SiteEigensolverFailure(t *testing.T) {
	s, err := newP2Site(0, 2, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := core.P2SiteSnapshot{Gram: make([]float64, 9), LamBound: 10}
	for i := range poisoned.Gram {
		poisoned.Gram[i] = math.NaN()
	}
	if err := s.half.Restore(poisoned); err != nil {
		t.Fatal(err)
	}
	if _, err := s.step([][]float64{{1, 2, 3}}); err == nil || !strings.Contains(err.Error(), "eigendecomposition failed") {
		t.Fatalf("step on a NaN Gram returned %v, want the half's eigendecomposition failure", err)
	}
}

// TestFastSiteColdStartScalarCoalescing regresses the frozen-F̂ flood: on a
// cold start the first big block crosses the scalar threshold on nearly
// every row (F̂ is still 1 and no broadcast can land mid-block), and those
// crossings must collapse into one summed report, not one per row.
func TestFastSiteColdStartScalarCoalescing(t *testing.T) {
	const m, d, n = 10, 44, 1024
	rows := fastTestRows(91, n, d)
	s, err := newP2Site(0, m, 0.1, d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.step(rows)
	if err != nil {
		t.Fatal(err)
	}
	var scalars int
	var mass float64
	for _, msg := range out {
		if msg.Kind == wire.MsgScalar {
			scalars++
			mass += msg.Value
		}
	}
	if scalars != 1 {
		t.Fatalf("cold-start block sent %d scalar reports, want 1 coalesced", scalars)
	}
	// The coalesced report plus the residual unsent mass must account for
	// the block's whole Frobenius mass: the coordinator adds the values up.
	var want float64
	for _, row := range rows {
		want += matrix.NormSq(row)
	}
	if diff := want - mass; diff < 0 || diff > (0.1/m)*want {
		t.Fatalf("coalesced scalar mass %v vs block mass %v (residual %v)", mass, want, diff)
	}
}

// TestFastSiteSteadyStateAllocs pins the pooled-scratch guarantee: once
// warm, a block that sends no message allocates nothing on the site path.
func TestFastSiteSteadyStateAllocs(t *testing.T) {
	const m, d, block = 4, 16, 32
	// No broadcast reaches the site, so F̂ keeps its initial value, and
	// after the warm-up ships the tiny rows below stay far under every
	// threshold: steady-state blocks are message-free.
	s, err := newP2Site(0, m, 0.3, d)
	if err != nil {
		t.Fatal(err)
	}
	rows := fastTestRows(77, block, d)
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] *= 1e-6
		}
	}
	if _, err := s.step(fastTestRows(78, 64, d)); err != nil {
		t.Fatal(err)
	}
	var sent int
	feed := func() {
		out, err := s.step(rows)
		if err != nil {
			t.Fatal(err)
		}
		sent += len(out)
	}
	feed()
	before := sent
	if avg := testing.AllocsPerRun(100, feed); avg > 0 {
		t.Errorf("steady-state site block allocates %.2f allocs/op, want 0", avg)
	}
	if sent != before {
		t.Logf("note: %d messages fired during the alloc run", sent-before)
	}
}

// TestConstructorValidation refuses a site the half cannot be: an id
// outside [0, m), no sites, ε outside (0, 1), or no dimension.
func TestConstructorValidation(t *testing.T) {
	for _, c := range []struct {
		id, m int
		eps   float64
		d     int
	}{
		{-1, 4, 0.1, 3}, {4, 4, 0.1, 3}, {0, 0, 0.1, 3}, {0, 4, 0, 3}, {0, 4, 1, 3}, {0, 4, 0.1, 0},
	} {
		if _, err := newP2Site(c.id, c.m, c.eps, c.d); err == nil {
			t.Errorf("newP2Site(%d, %d, %v, %d) succeeded", c.id, c.m, c.eps, c.d)
		}
	}
}
