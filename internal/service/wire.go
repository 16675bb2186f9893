package service

import (
	"context"
	"fmt"
	"math"

	distmat "repro"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// WireBridge adapts a Manager to wire.Handler: the coordinator's wire
// listener (cmd/distserve -wire) feeds site block streams into the same
// tracker batch path HTTP ingestion uses. Per-site sequence dedup in the
// tracker turns the transport's at-least-once delivery into exactly-once
// application, and the watermarks it acks come from the tracker's
// checkpoint machinery, so site retention tracks real durability.
//
// A site streams either raw row blocks or, when it runs matrix P2's site
// half itself (cmd/distsite -protocol p2), msg-blocks of that half's
// messages, which the tracker applies to P2's coordinator half, its whole
// matrix once it takes messages; the F̂ broadcasts they make due go back
// to the tracker's sites through the listener registered with
// SetWireListener.
type WireBridge struct{ m *Manager }

var _ wire.Handler = (*WireBridge)(nil)

// WireBridge returns the manager's wire.Handler adapter.
func (m *Manager) WireBridge() *WireBridge { return &WireBridge{m: m} }

// SetWireListener registers the wire listener that serves the bridge: its
// counters go into /metrics, and F̂ broadcasts go out through it.
func (m *Manager) SetWireListener(l *wire.CoordListener) { m.wireL.Store(l) }

// Hello opens (or resumes) a site stream: it validates the tracker and
// site and returns the watermarks the site resumes from.
func (b *WireBridge) Hello(tracker string, site int) (applied, durable uint64, err error) {
	t, err := b.m.Get(tracker)
	if err != nil {
		return 0, 0, err
	}
	if t.Kind() != KindMatrix {
		return 0, 0, fmt.Errorf("service: tracker %q is %s, site streams need a matrix tracker", tracker, t.Kind())
	}
	if site < 0 || site >= t.spec.Sites {
		return 0, 0, fmt.Errorf("%w: site %d of %d", distmat.ErrInvalidSite, site, t.spec.Sites)
	}
	a, d := t.SiteWatermarks(site)
	return a, b.durableFor(t, a, d), nil
}

// RowBlock applies one numbered block and returns the advanced
// watermarks. Duplicates (retransmits) are dropped inside the tracker's
// apply critical section; gaps error, dropping the connection so the
// site's resume handshake heals the stream.
func (b *WireBridge) RowBlock(tracker string, site int, seq uint64, rows [][]float64) (applied, durable uint64, err error) {
	t, err := b.m.Get(tracker)
	if err != nil {
		return 0, 0, err
	}
	// IngestBlock applies the block on this goroutine before it returns, so
	// the decoder's borrowed row views are safe and the returned watermarks
	// cover this block.
	if err := t.IngestBlock(context.Background(), site, seq, rows); err != nil {
		return 0, 0, err
	}
	a, d := t.SiteWatermarks(site)
	return a, b.durableFor(t, a, d), nil
}

// MsgBlock applies one numbered block of P2 site messages under RowBlock's
// sequence rules — a duplicate is dropped, a gap refused — and sends the F̂
// broadcasts it made due, as one msg-block, to every site of the tracker
// once the tracker lock is released. A block that fails validation
// (applyMsgsLocked) is refused before any of it is applied, as a bad row
// block is.
func (b *WireBridge) MsgBlock(tracker string, site int, seq uint64, msgs []wire.Msg) (applied, durable uint64, err error) {
	t, err := b.m.Get(tracker)
	if err != nil {
		return 0, 0, err
	}
	blk := &msgBlock{msgs: msgs}
	if err := t.ingestBlock(context.Background(), ingestReq{site: site, seq: seq, msgs: blk}); err != nil {
		return 0, 0, err
	}
	if l := b.m.wireL.Load(); l != nil && len(blk.bcast) > 0 {
		l.Broadcast(tracker, blk.bcast)
	}
	a, d := t.SiteWatermarks(site)
	return a, b.durableFor(t, a, d), nil
}

// durableFor resolves the durable watermark a site is told. A tracker
// that can never checkpoint (no data dir, or a non-persistable session)
// reports durable = applied: retaining blocks for a restart that cannot
// restore anything would only grow the site's buffer without bound.
func (b *WireBridge) durableFor(t *Tracker, applied, durable uint64) uint64 {
	if b.m.opts.DataDir == "" || !t.persistable {
		return applied
	}
	return durable
}

// msgBlock is one msg-block on its way through a tracker: the site's
// messages (the decoder's, valid only during the call) and, once applied,
// every F̂ broadcast they made due, oldest first.
type msgBlock struct {
	msgs  []wire.Msg
	bcast []wire.Msg
}

// applyMsgsLocked applies a msg-block from site to the tracker's matrix P2
// coordinator half, which tallies every message, and records each F̂
// broadcast it makes due in b. The block is validated whole first: each
// message must be site's own, and either a positive finite scalar report
// or a finite row of the tracker's dimension — a broadcast or an unknown
// kind from a site is refused — so a refused block leaves nothing applied.
// Only then does a block carrying a message make the session that half
// alone (Session.P2Coordinator); an empty block fixes no feed.
//
//distlint:caller-holds mu
func (t *Tracker) applyMsgsLocked(site int, b *msgBlock) (int64, error) {
	d := t.sess.Config().Dim
	for i, m := range b.msgs {
		if m.Site != site {
			return 0, fmt.Errorf("service: message %d from site %d on site %d's stream", i, m.Site, site)
		}
		switch m.Kind {
		case wire.MsgScalar:
			if !(m.Value > 0 && m.Value <= math.MaxFloat64) {
				return 0, fmt.Errorf("service: message %d: scalar report %v, want a positive finite mass", i, m.Value)
			}
		case wire.MsgRow:
			if len(m.Vec) != d {
				return 0, fmt.Errorf("%w: message %d: row of length %d, want %d", distmat.ErrDimensionMismatch, i, len(m.Vec), d)
			}
			if w := matrix.NormSq(m.Vec); !(w <= math.MaxFloat64) {
				return 0, fmt.Errorf("service: message %d: row of squared norm %v, want a finite one", i, w)
			}
		default:
			return 0, fmt.Errorf("service: message %d: a site sends scalar and row messages, not kind %d", i, m.Kind)
		}
	}
	if len(b.msgs) == 0 {
		return 0, nil
	}
	coord, err := t.sess.P2Coordinator()
	if err != nil {
		return 0, fmt.Errorf("tracker %q: %w", t.name, err)
	}
	for _, m := range b.msgs {
		if m.Kind == wire.MsgRow {
			coord.Row(m.Vec)
		} else if fhat, due := coord.Scalar(m.Value); due {
			b.bcast = append(b.bcast, wire.Msg{Kind: wire.MsgEstimate, Value: fhat})
		}
	}
	return int64(len(b.msgs)), nil
}
