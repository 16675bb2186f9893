package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	distmat "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// Message mode: a site runs matrix P2's site half and streams its messages
// as msg-blocks, which the tracker applies to P2's coordinator half, all
// its matrix holds from the first message on (wire.go). cmd/distsite's tests hold a loopback deployment in lock step
// with the same halves joined in process; these hold the bridge's rules.

// msgOutbox is a P2Uplink that collects a site half's messages in wire form.
type msgOutbox []wire.Msg

func (o *msgOutbox) Scalar(site int, fj float64) {
	*o = append(*o, wire.Msg{Kind: wire.MsgScalar, Site: site, Value: fj})
}

func (o *msgOutbox) Row(site int, row []float64) {
	*o = append(*o, wire.Msg{Kind: wire.MsgRow, Site: site, Vec: append([]float64(nil), row...)})
}

// siteMsgBlocks runs a site half over wireBlock's blocks 1..n and returns
// each block's messages. No broadcast reaches the half, so its F̂ stays at
// the start value and every block sends: the stream is a deterministic
// function of its arguments.
func siteMsgBlocks(t *testing.T, site int, spec Spec, n, rowsPer int) [][]wire.Msg {
	t.Helper()
	var out msgOutbox
	half, err := core.NewP2Site(site, spec.Sites, spec.Epsilon, spec.Dim, &out)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]wire.Msg, n)
	for seq := range blocks {
		out = nil
		if err := half.ProcessBlock(wireBlock(uint64(seq+1), rowsPer, spec.Dim)); err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatalf("block %d sent no message", seq+1)
		}
		blocks[seq] = out
	}
	return blocks
}

// msgState is what a msg-block may change in a tracker: the coordinator
// half's Gram and F̂, the tally, and the site's watermark.
type msgState struct {
	Gram    []float64
	Fhat    float64
	Stats   distmat.Stats
	Applied uint64
}

func stateAt(t *testing.T, tr *Tracker, site int) msgState {
	t.Helper()
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tr.SiteWatermarks(site)
	return msgState{Gram: snap.Gram.RawData(), Fhat: snap.Frobenius, Stats: snap.Stats, Applied: a}
}

var msgSpec = Spec{Kind: KindMatrix, Protocol: "p2", Sites: 3, Epsilon: 0.2, Dim: 4}

// TestWireHandlerSequenceRules holds msg-blocks to RowBlock's rules: a
// duplicate is acked and dropped, a gap refused, and a block carrying
// another site's message refused before any of it is applied.
func TestWireHandlerSequenceRules(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Create("p", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	b := m.WireBridge()
	msg := []wire.Msg{{Kind: wire.MsgScalar, Site: 2, Value: 1}}
	for _, step := range []struct {
		seq     uint64
		msgs    []wire.Msg
		applied uint64
		ok      bool
	}{
		{1, msg, 1, true},
		{1, msg, 1, true},  // duplicate
		{3, msg, 0, false}, // gap
		{2, append(msg, wire.Msg{Kind: wire.MsgScalar, Site: 1, Value: 1}), 0, false},
		{2, msg, 2, true},
	} {
		a, d, err := b.MsgBlock("p", 2, step.seq, step.msgs)
		if (err == nil) != step.ok || a != step.applied || d != a {
			t.Fatalf("seq %d: watermarks %d/%d, error %v", step.seq, a, d, err)
		}
	}
	if st := stateAt(t, tr, 2); st.Stats.UpMsgs != 2 || st.Fhat != 3 {
		t.Fatalf("coordinator took %d messages to F̂ = %v, want 2 to 3", st.Stats.UpMsgs, st.Fhat)
	}
	if tm := tr.metrics(); tm.NetBlocks != 2 || tm.NetDupBlocks != 1 || tm.NetRows != 0 {
		t.Fatalf("net metrics %d blocks / %d dups / %d rows, want 2/1/0", tm.NetBlocks, tm.NetDupBlocks, tm.NetRows)
	}
	if a, _, err := b.Hello("p", 2); a != 2 || err != nil {
		t.Fatalf("hello resumes at %d (%v), want 2", a, err)
	}
}

// TestMsgBlockRejectsBadMessages sends blocks whose last message is
// malformed: each is refused and leaves the tracker as it was — nothing of
// the block applied, the watermark unmoved — and the stream then goes on.
func TestMsgBlockRejectsBadMessages(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Create("p", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	b := m.WireBridge()
	good := []wire.Msg{
		{Kind: wire.MsgScalar, Site: 0, Value: 2},
		{Kind: wire.MsgRow, Site: 0, Vec: []float64{1, 2, 3, 4}},
	}
	if _, _, err := b.MsgBlock("p", 0, 1, good); err != nil {
		t.Fatal(err)
	}
	before := stateAt(t, tr, 0)
	for _, tc := range []struct {
		name string
		bad  wire.Msg
	}{
		{"NaN scalar", wire.Msg{Kind: wire.MsgScalar, Value: math.NaN()}},
		{"+Inf scalar", wire.Msg{Kind: wire.MsgScalar, Value: math.Inf(1)}},
		{"-Inf scalar", wire.Msg{Kind: wire.MsgScalar, Value: math.Inf(-1)}},
		{"zero scalar", wire.Msg{Kind: wire.MsgScalar, Value: 0}},
		{"negative scalar", wire.Msg{Kind: wire.MsgScalar, Value: -1}},
		{"short row", wire.Msg{Kind: wire.MsgRow, Vec: []float64{1, 2, 3}}},
		{"long row", wire.Msg{Kind: wire.MsgRow, Vec: []float64{1, 2, 3, 4, 5}}},
		{"NaN row entry", wire.Msg{Kind: wire.MsgRow, Vec: []float64{1, math.NaN(), 3, 4}}},
		{"infinite row entry", wire.Msg{Kind: wire.MsgRow, Vec: []float64{1, 2, math.Inf(-1), 4}}},
		{"overflowing row", wire.Msg{Kind: wire.MsgRow, Vec: []float64{1e200, 1, 1, 1}}},
		{"estimate from a site", wire.Msg{Kind: wire.MsgEstimate, Value: 50}},
		{"unknown kind", wire.Msg{Kind: 9, Value: 1}},
	} {
		blk := append(append([]wire.Msg(nil), good...), tc.bad)
		if _, _, err := b.MsgBlock("p", 0, 2, blk); err == nil {
			t.Errorf("%s: block accepted", tc.name)
		}
		if after := stateAt(t, tr, 0); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: a refused block changed the tracker: %+v → %+v", tc.name, before, after)
		}
	}
	if a, _, err := b.MsgBlock("p", 0, 2, good); err != nil || a != 2 {
		t.Fatalf("good block after the refusals: applied %d, %v", a, err)
	}
}

// TestWireRefusedMsgBlockAppliesNothing sends, over loopback, a block whose
// head is a good message and whose tail the tracker refuses. The site's
// connection drops and it retransmits the block on every reconnect, yet
// nothing of it is ever applied: the tracker stays where the last good
// block left it, and the site's Drain never sees the block acked.
func TestWireRefusedMsgBlockAppliesNothing(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Create("p", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wire.NewCoordListener("127.0.0.1:0", m.WireBridge())
	if err != nil {
		t.Fatal(err)
	}
	m.SetWireListener(l)
	go l.Serve()
	defer l.Close()
	sc, err := wire.Dial(wire.SiteConfig{
		Addr: l.Addr(), Site: 1, Tracker: "p",
		MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		Recv: func([]wire.Msg) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	head := wire.Msg{Kind: wire.MsgScalar, Site: 1, Value: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sc.SendMsgs([]wire.Msg{head}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before := stateAt(t, tr, 1)

	if err := sc.SendMsgs([]wire.Msg{head, {Kind: wire.MsgRow, Site: 1, Vec: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelShort()
	if err := sc.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain after a refused block: %v, want it never acked", err)
	}
	if got := sc.Stats().Retransmits.Load(); got < 1 {
		t.Fatalf("site retransmitted %d blocks, want the refused block resent", got)
	}
	if after := stateAt(t, tr, 1); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused block changed the tracker: %+v → %+v", before, after)
	}
}

// TestMsgFeedRules pins which trackers take msg-blocks and that a tracker's
// feed is fixed by what it first applies, over the wire and HTTP alike.
func TestMsgFeedRules(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := m.WireBridge()
	ctx := context.Background()
	msg := []wire.Msg{{Kind: wire.MsgScalar, Site: 0, Value: 1}}
	row := [][]float64{{1, 2, 3, 4}}

	for name, spec := range map[string]Spec{
		"sharded":  {Kind: KindMatrix, Protocol: "p2", Sites: 3, Epsilon: 0.2, Dim: 4, Shards: 2},
		"windowed": {Kind: KindMatrix, Protocol: "p2", Sites: 3, Epsilon: 0.2, Dim: 4, Window: 100},
		"p2small":  {Kind: KindMatrix, Protocol: "p2small", Sites: 3, Epsilon: 0.2, Dim: 4},
		"p1":       {Kind: KindMatrix, Protocol: "p1", Sites: 3, Epsilon: 0.2, Dim: 4},
		"items":    {Kind: KindHH, Sites: 3, Epsilon: 0.1},
	} {
		if _, err := m.Create(name, spec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.MsgBlock(name, 0, 1, msg); !errors.Is(err, distmat.ErrWrongKind) {
			t.Errorf("%s tracker took a msg-block: %v", name, err)
		}
	}

	rowFed, err := m.Create("rows", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowFed.IngestRows(ctx, 0, row); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.MsgBlock("rows", 0, 1, msg); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("a tracker fed rows took a msg-block: %v", err)
	}

	msgFed, err := m.Create("msgs", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := m.Create("fresh", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.MsgBlock("msgs", 0, 1, msg); err != nil {
		t.Fatal(err)
	}
	if err := msgFed.IngestRows(ctx, 0, row); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("a tracker fed messages took rows: %v", err)
	}
	if _, _, err := b.RowBlock("msgs", 1, 1, row); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("a tracker fed messages took a row block: %v", err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/trackers/msgs/rows", "application/json", strings.NewReader(`{"site":0,"rows":[[1,2,3,4]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST rows to a tracker fed messages: status %d, want 400", resp.StatusCode)
	}
	if snap, err := msgFed.Snapshot(); err != nil || snap.Count != 0 || snap.Stats.UpMsgs != 1 {
		t.Fatalf("refused rows reached the tracker: count %d, %d messages, %v", snap.Count, snap.Stats.UpMsgs, err)
	}
	// A tracker fed neither takes either.
	if err := fresh.IngestRows(ctx, 0, row); err != nil {
		t.Fatalf("a fresh tracker refused rows: %v", err)
	}

	// The feed is fixed only after a block validates, and only by one that
	// carries a message: a fresh tracker whose first msg-block was refused,
	// or was empty (the codec decodes a zero count), still takes rows.
	for name, blk := range map[string][]wire.Msg{
		"refused": {{Kind: wire.MsgScalar, Site: 0, Value: math.NaN()}},
		"empty":   {},
	} {
		tr, err := m.Create(name, msgSpec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.MsgBlock(name, 0, 1, blk); (err == nil) != (len(blk) == 0) {
			t.Fatalf("%s first msg-block: %v", name, err)
		}
		if err := tr.IngestRows(ctx, 0, row); err != nil {
			t.Fatalf("a tracker whose first msg-block was %s refused rows: %v", name, err)
		}
	}
}

// TestMsgFeedRulesSurviveRestart checkpoints a tracker fed messages and
// one fed rows, reopens the manager, and requires each to refuse the other
// feed.
func TestMsgFeedRulesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	msg := []wire.Msg{{Kind: wire.MsgScalar, Site: 0, Value: 1}}
	row := [][]float64{{1, 2, 3, 4}}

	m, err := Open(Options{DataDir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	rowFed, err := m.Create("rows", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowFed.IngestRows(ctx, 0, row); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("msgs", msgSpec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.WireBridge().MsgBlock("msgs", 0, 1, msg); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = Open(Options{DataDir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.WireBridge().MsgBlock("rows", 0, 1, msg); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("restored tracker fed rows took a msg-block: %v", err)
	}
	msgFed, err := m.Get("msgs")
	if err != nil {
		t.Fatal(err)
	}
	if err := msgFed.IngestRows(ctx, 0, row); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("restored tracker fed messages took rows: %v", err)
	}
	if a, _, err := m.WireBridge().MsgBlock("msgs", 0, 2, msg); err != nil || a != 2 {
		t.Fatalf("restored tracker fed messages: block 2 applied %d, %v", a, err)
	}
}

// TestMsgFedRefusedRowsAreNotLogged crashes a WAL manager after a tracker
// fed messages refused a row batch. Msg-blocks are not logged, so the
// recovered tracker has taken no message; had the refused batch reached
// the log, replay would ingest rows the client was told were refused and
// the site's resent msg-blocks would be refused for good.
func TestMsgFedRefusedRowsAreNotLogged(t *testing.T) {
	dir := t.TempDir()
	msg := []wire.Msg{{Kind: wire.MsgScalar, Site: 0, Value: 1}}
	m, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Create("msgs", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.WireBridge().MsgBlock("msgs", 0, 1, msg); err != nil {
		t.Fatal(err)
	}
	if err := tr.IngestRows(context.Background(), 0, [][]float64{{1, 2, 3, 4}}); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("tracker fed messages took rows: %v", err)
	}
	// Crash: abandon m.

	m2, err := Open(walTestOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	tr2, err := m2.Get("msgs")
	if err != nil {
		t.Fatal(err)
	}
	if n := tr2.Count(); n != 0 {
		t.Fatalf("recovered tracker holds %d refused rows", n)
	}
	if a, _, err := m2.WireBridge().MsgBlock("msgs", 0, 1, msg); err != nil || a != 1 {
		t.Fatalf("resent block 1 after the crash: applied %d, %v", a, err)
	}
}

// TestMsgFedTrackerHibernates evicts a tracker fed messages between two
// halves of its stream: the fault-in restores it bit for bit (it ends equal
// to a twin that never hibernated), and the feed rule holds on the stub.
func TestMsgFedTrackerHibernates(t *testing.T) {
	m, err := Open(Options{DataDir: t.TempDir(), MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	twinM, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer twinM.Close()
	tr, err := m.Create("a", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Create("b", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := twinM.Create("a", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	blocks := siteMsgBlocks(t, 1, msgSpec, 20, 3)
	feed := func(from, to int) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			for _, b := range []*WireBridge{m.WireBridge(), twinM.WireBridge()} {
				if _, _, err := b.MsgBlock("a", 1, uint64(seq), blocks[seq-1]); err != nil {
					t.Fatalf("block %d: %v", seq, err)
				}
			}
		}
	}
	feed(1, 10)
	if _, err := other.Snapshot(); err != nil { // the touch that evicts "a"
		t.Fatal(err)
	}
	if tr.resident() {
		t.Fatal(`"a" still resident past MaxResident 1`)
	}
	if err := tr.IngestRows(context.Background(), 0, [][]float64{{1, 2, 3, 4}}); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("hibernated tracker fed messages took rows: %v", err)
	}
	if _, err := other.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if tr.resident() {
		t.Fatal(`"a" still resident past MaxResident 1`)
	}
	feed(11, 20)
	if got, want := stateAt(t, tr, 1), stateAt(t, twin, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("after hibernation: %+v, twin %+v", got, want)
	}
	if m.Metrics().Tenancy.Faults < 2 {
		t.Fatalf("%d fault-ins, want ≥ 2", m.Metrics().Tenancy.Faults)
	}
}

// TestMsgBlocksCrashResume is TestWireManagerRestartResume for a site
// fed through WireBridge.MsgBlock: the manager dies after a checkpoint,
// a new one restores from disk, and the site's retained msg-blocks rebuild
// the stream. Every block is applied exactly once: the survivor equals a
// twin fed each block once, bit for bit.
func TestMsgBlocksCrashResume(t *testing.T) {
	dir := t.TempDir()
	const site, rowsPer = 2, 5
	blocks := siteMsgBlocks(t, site, msgSpec, 60, rowsPer)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	mA, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Create("g", msgSpec); err != nil {
		t.Fatal(err)
	}
	lA, err := wire.NewCoordListener("127.0.0.1:0", mA.WireBridge())
	if err != nil {
		t.Fatal(err)
	}
	mA.SetWireListener(lA)
	go lA.Serve()
	addr := lA.Addr()

	var heard atomic.Int64
	sc, err := wire.Dial(wire.SiteConfig{
		Addr: addr, Site: site, Tracker: "g",
		MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		Recv: func(msgs []wire.Msg) error { heard.Add(int64(len(msgs))); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	send := func(from, to int) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			if err := sc.SendMsgs(blocks[seq-1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}

	send(1, 30)
	if err := mA.Checkpoint("g"); err != nil {
		t.Fatal(err)
	}
	send(31, 50) // applied and acked, but newer than the checkpoint
	lA.Close()   // the coordinator dies: mA is abandoned, not Closed

	mB, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	tB, err := mB.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if a, d := tB.SiteWatermarks(site); a != 30 || d != 30 {
		t.Fatalf("restored watermarks %d/%d, want 30/30", a, d)
	}
	lB, err := wire.NewCoordListener(addr, mB.WireBridge())
	if err != nil {
		t.Fatal(err)
	}
	mB.SetWireListener(lB)
	go lB.Serve()
	defer lB.Close()

	send(51, 60) // the reconnect retransmits 31..50 first
	if got := sc.Stats().Retransmits.Load(); got < 20 {
		t.Fatalf("site retransmitted %d blocks, want ≥ 20", got)
	}
	if heard.Load() == 0 {
		t.Fatal("the site heard no F̂ broadcast")
	}

	mO, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mO.Close()
	tO, err := mO.Create("g", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 60; seq++ {
		if _, _, err := mO.WireBridge().MsgBlock("g", site, uint64(seq), blocks[seq-1]); err != nil {
			t.Fatal(err)
		}
	}
	got, want := stateAt(t, tB, site), stateAt(t, tO, site)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor %+v, twin fed once %+v", got, want)
	}
}

// matrixOf returns the tracker's matrix tracker, read under its lock.
func matrixOf(tr *Tracker) distmat.MatrixTracker {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sess.Matrix()
}

// TestMsgFedCheckpointSize holds a tracker fed messages to the paper's
// coordinator space: it is the coordinator half alone, one d×d Gram
// whatever m is, so at m = 50, d = 90 its SaveState stream stays within
// 1.25× that of the same message history at m = 1.
func TestMsgFedCheckpointSize(t *testing.T) {
	const d = 90
	rng := rand.New(rand.NewSource(7))
	blocks := make([][]wire.Msg, 20) // 200 scalar reports and 200 rows
	for i := range blocks {
		for j := 0; j < 10; j++ {
			vec := make([]float64, d)
			for k := range vec {
				vec[k] = rng.NormFloat64()
			}
			blocks[i] = append(blocks[i],
				wire.Msg{Kind: wire.MsgScalar, Site: 0, Value: 1 + rng.Float64()},
				wire.Msg{Kind: wire.MsgRow, Site: 0, Vec: vec})
		}
	}
	size := func(sites int) int {
		m, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		tr, err := m.Create("s", Spec{Kind: KindMatrix, Protocol: "p2", Sites: sites, Epsilon: 0.2, Dim: d})
		if err != nil {
			t.Fatal(err)
		}
		for seq, blk := range blocks {
			if _, _, err := m.WireBridge().MsgBlock("s", 0, uint64(seq+1), blk); err != nil {
				t.Fatal(err)
			}
		}
		if mat, ok := matrixOf(tr).(*core.P2Coordinator); !ok {
			t.Fatalf("m = %d: a tracker fed messages holds a %T, want the coordinator half alone", sites, mat)
		}
		return len(StateBytes(t, tr))
	}
	one, fifty := size(1), size(50)
	t.Logf("SaveState stream: %d bytes at m = 1, %d at m = 50", one, fifty)
	if float64(fifty) > 1.25*float64(one) {
		t.Fatalf("m = 50 checkpoints %d bytes, %.2f× the %d at m = 1: want ≤ 1.25×", fifty, float64(fifty)/float64(one), one)
	}
}

// legacyMsgBlocks are the msg-blocks 1–4 that site 1 sent the tracker that
// wrote testdata/msgfed-v1.ckpt: siteMsgBlocks(t, 1, msgSpec, 4, 3) as the
// site half emitted them while its ship step ran the full eigensolver. The
// ship step's vectors have moved in their last bits since (matrix.EigAbove),
// so today's site no longer reproduces them, and the file records these.
var legacyMsgBlocks = [][]wire.Msg{
	{
		{Kind: wire.MsgScalar, Site: 1, Value: 7.250189156379586},
		{Kind: wire.MsgScalar, Site: 1, Value: 3.402773511089292},
		{Kind: wire.MsgScalar, Site: 1, Value: 3.5375880861216835},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{1.662203612092268, -2.1852382622641686, -0.6539991167768001, 0.4749253360650145}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{0.9524598680149795, 0.21014734672176086, 1.9257815443051938, 0.28530635991248016}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{-0.7492617128018301, -0.7042280957210684, 0.4476450706449234, -0.0015184994849456292}},
	},
	{
		{Kind: wire.MsgScalar, Site: 1, Value: 3.3847369805242726},
		{Kind: wire.MsgScalar, Site: 1, Value: 6.921645636077231},
		{Kind: wire.MsgScalar, Site: 1, Value: 8.829329853457415},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{-3.0795290164555746, -0.20250488386180224, 2.07852476406683, 0.7023237566957768}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{0.22715906903715585, 0.7727477653850047, 1.00901895817426, -1.7673369855564507}},
	},
	{
		{Kind: wire.MsgScalar, Site: 1, Value: 1.7778960237356511},
		{Kind: wire.MsgScalar, Site: 1, Value: 1.9316649807949902},
		{Kind: wire.MsgScalar, Site: 1, Value: 2.3340803921635835},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{-1.8000447911384756, 0.479822916441939, 0.36185028841651407, 0.4033753463932746}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{0.4099220685549784, 0.3872316457778355, 1.2807200455480616, 0.2197619403109519}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{0.12375473285759117, 0.2993186689603126, -0.19357455684548214, 0.3698518417934431}},
	},
	{
		{Kind: wire.MsgScalar, Site: 1, Value: 7.0214671659028545},
		{Kind: wire.MsgScalar, Site: 1, Value: 4.469023885639254},
		{Kind: wire.MsgScalar, Site: 1, Value: 4.02349544622348},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{0.9052571478479974, -0.8122278248614939, 2.963331617724928, 0.3302951376202509}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{0.6492319823665246, 0.8213583434577019, -0.17309495344097658, 1.7933838225949699}},
		{Kind: wire.MsgRow, Site: 1, Vec: []float64{-0.7942087383928195, -0.11938835054048354, 0.16992703633221923, 0.35859576506015833}},
	},
}

// TestLegacyMsgFedCheckpoint restores testdata/msgfed-v1.ckpt, which a
// tracker fed messages wrote while it still hosted a whole P2 simulator
// (m = 3, d = 4, site 1's msg-blocks 1–4 applied, legacyMsgBlocks; three
// idle site halves in the file). It restores as the coordinator half alone,
// refuses a row batch, takes the site's block 5, and then holds what a
// tracker fed the same blocks 1–5 today holds, bit for bit.
func TestLegacyMsgFedCheckpoint(t *testing.T) {
	ckpt, err := os.ReadFile(filepath.Join("testdata", "msgfed-v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "legacy.ckpt"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if mat, ok := matrixOf(tr).(*core.P2Coordinator); !ok {
		t.Fatalf("the legacy checkpoint restored a %T, want the coordinator half alone", mat)
	}
	if err := tr.IngestRows(context.Background(), 0, [][]float64{{1, 2, 3, 4}}); !errors.Is(err, distmat.ErrWrongKind) {
		t.Fatalf("restored tracker fed messages took rows: %v", err)
	}
	blocks := append(legacyMsgBlocks[:4:4], siteMsgBlocks(t, 1, msgSpec, 5, 3)[4])
	if a, _, err := m.WireBridge().MsgBlock("legacy", 1, 5, blocks[4]); err != nil || a != 5 {
		t.Fatalf("block 5 after the legacy restore: applied %d, %v", a, err)
	}

	twinM, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer twinM.Close()
	twin, err := twinM.Create("legacy", msgSpec)
	if err != nil {
		t.Fatal(err)
	}
	for seq, blk := range blocks {
		if _, _, err := twinM.WireBridge().MsgBlock("legacy", 1, uint64(seq+1), blk); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := stateAt(t, tr, 1), stateAt(t, twin, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy restore + block 5: %+v, fed 1–5 today: %+v", got, want)
	}
}
