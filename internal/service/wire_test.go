package service

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// wireBlock generates the deterministic test block for a sequence
// number: both ends of a resume test can reproduce block N exactly.
func wireBlock(seq uint64, rowsPer, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(seq)*977 + 3))
	rows := make([][]float64, rowsPer)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// TestWireBridgeDedupGap exercises the bridge's session rules without
// sockets: handshake validation, duplicate drops, gap rejection, and the
// degenerate durable = applied watermark of an unpersisted manager.
func TestWireBridgeDedupGap(t *testing.T) {
	m, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tr, err := m.Create("g", Spec{Kind: KindMatrix, Protocol: "p2", Sites: 3, Epsilon: 0.2, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("hot", Spec{Kind: KindHH, Sites: 2, Epsilon: 0.05}); err != nil {
		t.Fatal(err)
	}
	b := m.WireBridge()

	if _, _, err := b.Hello("nope", 0); err == nil {
		t.Fatal("hello for an unknown tracker succeeded")
	}
	if _, _, err := b.Hello("g", 7); err == nil {
		t.Fatal("hello for an out-of-range site succeeded")
	}
	if _, _, err := b.Hello("hot", 0); err == nil || !strings.Contains(err.Error(), "matrix") {
		t.Fatalf("hello for a non-matrix tracker: %v", err)
	}
	a, d, err := b.Hello("g", 1)
	if err != nil || a != 0 || d != 0 {
		t.Fatalf("fresh hello = %d/%d, %v", a, d, err)
	}

	rows := wireBlock(1, 2, 4)
	if a, d, err = b.RowBlock("g", 1, 1, rows); err != nil || a != 1 || d != 1 {
		t.Fatalf("block 1 = %d/%d, %v (no data dir, durable must equal applied)", a, d, err)
	}
	if a, d, err = b.RowBlock("g", 1, 1, rows); err != nil || a != 1 || d != 1 {
		t.Fatalf("retransmitted block 1 = %d/%d, %v", a, d, err)
	}
	if _, _, err = b.RowBlock("g", 1, 5, rows); err == nil {
		t.Fatal("sequence gap accepted")
	}
	if a, _, err = b.RowBlock("g", 1, 2, wireBlock(2, 2, 4)); err != nil || a != 2 {
		t.Fatalf("block 2 = %d, %v", a, err)
	}

	tm := tr.metrics()
	if tm.NetBlocks != 2 || tm.NetRows != 4 || tm.NetDupBlocks != 1 {
		t.Fatalf("net metrics %d blocks / %d rows / %d dups, want 2/4/1", tm.NetBlocks, tm.NetRows, tm.NetDupBlocks)
	}
	if m.Metrics().Wire != nil {
		t.Fatal("wire section present without a registered listener")
	}
	l, err := wire.NewCoordListener("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Stats().FramesIn.Store(8)
	l.Stats().BytesIn.Store(1024)
	m.SetWireListener(l)
	doc := m.Metrics()
	if doc.Wire == nil || doc.Wire.NetRows != 4 {
		t.Fatalf("wire section %+v, want net_rows 4", doc.Wire)
	}
	if doc.Wire.MsgsPerUpdate != 2 || doc.Wire.BytesPerUpdate != 256 {
		t.Fatalf("per-update ratios %v msgs / %v bytes, want 2 / 256", doc.Wire.MsgsPerUpdate, doc.Wire.BytesPerUpdate)
	}
}

// TestWireManagerRestartResume is the crash test: a site streams through
// a real listener into a manager, the manager is killed after a
// checkpoint (abandoned, never Closed — nothing after the checkpoint
// survives), a second manager restores from disk, and the site's
// retained blocks rebuild the stream. The restored tracker must answer
// bit-identically to an in-process tracker fed the same blocks once.
func TestWireManagerRestartResume(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Kind: KindMatrix, Protocol: "p2", Sites: 4, Epsilon: 0.2, Dim: 8}
	const site, rowsPer = 2, 5
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	mA, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Create("g", spec); err != nil {
		t.Fatal(err)
	}
	lA, err := wire.NewCoordListener("127.0.0.1:0", mA.WireBridge())
	if err != nil {
		t.Fatal(err)
	}
	go lA.Serve()
	addr := lA.Addr()

	sc, err := wire.Dial(wire.SiteConfig{
		Addr: addr, Site: site, Tracker: "g",
		MinBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	send := func(from, to uint64) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			if err := sc.SendBlock(wireBlock(seq, rowsPer, spec.Dim)); err != nil {
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
	lA.Close()   // coordinator "crashes": mA is abandoned, not Closed

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
	go lB.Serve()
	defer lB.Close()

	send(51, 60) // reconnect retransmits 31..50 first, then these
	if got := sc.Stats().Retransmits.Load(); got < 20 {
		t.Fatalf("site retransmitted %d blocks, want ≥ 20", got)
	}
	if a, _ := tB.SiteWatermarks(site); a != 60 {
		t.Fatalf("final applied watermark %d, want 60", a)
	}

	// The oracle: the same spec fed the same 60 blocks exactly once,
	// in-process. The survivor must match it bit for bit.
	mO, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mO.Close()
	tO, err := mO.Create("g", spec)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 60; seq++ {
		if err := tO.IngestRows(ctx, site, wireBlock(seq, rowsPer, spec.Dim)); err != nil {
			t.Fatal(err)
		}
	}

	got, err := tB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tO.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Fatalf("count %d, oracle %d", got.Count, want.Count)
	}
	if math.Float64bits(got.Frobenius) != math.Float64bits(want.Frobenius) {
		t.Fatalf("frobenius %v, oracle %v (not bit-identical)", got.Frobenius, want.Frobenius)
	}
	d := want.Gram.Dim()
	if got.Gram.Dim() != d {
		t.Fatalf("gram dim %d, oracle %d", got.Gram.Dim(), d)
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if math.Float64bits(got.Gram.At(i, j)) != math.Float64bits(want.Gram.At(i, j)) {
				t.Fatalf("gram[%d][%d] = %v, oracle %v (not bit-identical)", i, j, got.Gram.At(i, j), want.Gram.At(i, j))
			}
		}
	}
}
