package service

import (
	"context"
	"fmt"

	distmat "repro"
	"repro/internal/wire"
)

// WireBridge adapts a Manager to wire.Handler: the coordinator's wire
// listener (cmd/distserve -wire) feeds site block streams into the same
// tracker batch path HTTP ingestion uses. Per-site sequence dedup in the
// tracker turns the transport's at-least-once delivery into exactly-once
// application, and the watermarks it acks come from the tracker's
// checkpoint machinery, so site retention tracks real durability.
type WireBridge struct{ m *Manager }

var _ wire.Handler = (*WireBridge)(nil)

// WireBridge returns the manager's wire.Handler adapter.
func (m *Manager) WireBridge() *WireBridge { return &WireBridge{m: m} }

// SetWireStats registers the wire listener's counters for /metrics.
func (m *Manager) SetWireStats(s *wire.Stats) { m.wireStats.Store(s) }

// Hello opens (or resumes) a site stream: it validates the tracker and
// site and returns the watermarks the site resumes from.
func (b *WireBridge) Hello(tracker string, site int) (applied, durable uint64, err error) {
	t, err := b.m.Get(tracker)
	if err != nil {
		return 0, 0, err
	}
	if t.Kind() != KindMatrix {
		return 0, 0, fmt.Errorf("service: tracker %q is %s, row streams need a matrix tracker", tracker, t.Kind())
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

// MsgBlock refuses node-runtime messages: a tracker is fed rows.
func (b *WireBridge) MsgBlock(tracker string, _ int, _ uint64, _ []wire.Msg) (applied, durable uint64, err error) {
	return 0, 0, fmt.Errorf("service: tracker %q takes row blocks, not protocol messages", tracker)
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
