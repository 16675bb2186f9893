package node

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// The network transport is internal/wire, as for cmd/distsite and
// cmd/distserve: a site's outbox is one numbered msg-block on a
// wire.SiteConn (DialWire), under its window, retention and resume, and
// broadcasts come back as unnumbered msg-blocks from the coordinator's
// wire.CoordListener (ListenWire), which serves one coordinator under the
// empty tracker name.

// toWireMsg converts a runtime message to its frame record.
func toWireMsg(m Message) wire.Msg {
	return wire.Msg{Kind: uint8(m.Kind), Site: m.Site, Elem: m.Elem, Value: m.Value, Vec: m.Vec}
}

// fromWireMsg converts a decoded frame record to a runtime message,
// copying the vector out of the decoder's pooled buffer: handlers may keep
// Vec, so they must never see borrowed storage.
func fromWireMsg(w wire.Msg) Message {
	m := Message{Kind: MsgKind(w.Kind), Site: w.Site, Elem: w.Elem, Value: w.Value}
	if w.Vec != nil {
		m.Vec = append([]float64(nil), w.Vec...)
	}
	return m
}

// ListenWire listens on addr for the sites of one coordinator, which
// newCoord builds around the listener's broadcast Sender. Serve the
// returned listener to accept sites.
func ListenWire[C CoordinatorHandler](addr string, newCoord func(broadcast Sender) (C, error)) (C, *wire.CoordListener, error) {
	h := &wireHandler{applied: make(map[int]uint64), failed: make(map[int]error)}
	coord, err := newCoord(SenderFunc(h.broadcast))
	if err != nil {
		return coord, nil, err
	}
	h.coord = coord
	if h.l, err = wire.NewCoordListener(addr, h); err != nil {
		return coord, nil, err
	}
	return coord, h.l, nil
}

// wireHandler adapts a CoordinatorHandler to wire.Handler. The coordinator
// has no sequence state, so the adapter keeps each site's applied
// watermark; nothing is checkpointed, so durable = applied.
type wireHandler struct {
	coord CoordinatorHandler
	l     *wire.CoordListener

	mu      sync.Mutex
	applied map[int]uint64 //distlint:guarded-by mu
	failed  map[int]error  //distlint:guarded-by mu
}

// Hello resumes a site at its applied watermark, or refuses a site whose
// stream a half-applied block ended.
func (h *wireHandler) Hello(tracker string, site int) (applied, durable uint64, err error) {
	if tracker != "" {
		return 0, 0, fmt.Errorf("node: tracker %q: a node listener serves one coordinator, under the empty name", tracker)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.failed[site]; err != nil {
		return 0, 0, err
	}
	return h.applied[site], h.applied[site], nil
}

// RowBlock refuses raw rows: a coordinator takes its sites' messages.
func (h *wireHandler) RowBlock(string, int, uint64, [][]float64) (applied, durable uint64, err error) {
	return 0, 0, errors.New("node: a coordinator takes protocol messages, not row blocks")
}

// MsgBlock applies one numbered block of site messages exactly once: a
// duplicate is dropped and a gap refused, and so is a block carrying
// another site's message, before any of it is applied. A message the
// coordinator refuses leaves its block half applied, and a retransmit would
// apply the head twice, so that ends the site's stream for good. The lock
// is held across the apply so that a site's old connection, not yet torn
// down, and its replacement cannot both apply one seq.
func (h *wireHandler) MsgBlock(_ string, site int, seq uint64, msgs []wire.Msg) (applied, durable uint64, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.failed[site]; err != nil {
		return 0, 0, err
	}
	a := h.applied[site]
	if seq <= a {
		return a, a, nil
	}
	if seq != a+1 {
		return 0, 0, fmt.Errorf("node: site %d sequence gap: got %d, want %d", site, seq, a+1)
	}
	for _, w := range msgs {
		if w.Site != site {
			return 0, 0, fmt.Errorf("node: message from site %d on site %d's stream", w.Site, site)
		}
	}
	for i, w := range msgs {
		if err := h.coord.Handle(fromWireMsg(w)); err != nil {
			h.failed[site] = fmt.Errorf("node: site %d stream ended by message %d of block %d: %w", site, i, seq, err)
			return 0, 0, h.failed[site]
		}
	}
	h.applied[site] = seq
	return seq, seq, nil
}

// broadcast is the coordinator's broadcast Sender. It is best effort
// (wire.CoordListener.Broadcast), so a broadcast never fails the block
// whose message caused it.
func (h *wireHandler) broadcast(m Message) error {
	h.l.Broadcast("", []wire.Msg{toWireMsg(m)})
	return nil
}

// DialWire connects a site, which newSite builds around its Sender, to the
// coordinator that a ListenWire listener serves at cfg.Addr; the site
// receives that coordinator's broadcasts (DialWire sets cfg.Recv). Drain
// the returned SiteConn to wait until the coordinator has applied all the
// site sent, and Close it when done.
func DialWire[S BroadcastReceiver](cfg wire.SiteConfig, newSite func(out Sender) (S, error)) (S, *wire.SiteConn, error) {
	out := &wireSender{}
	site, err := newSite(out)
	if err != nil {
		return site, nil, err
	}
	cfg.Recv = func(msgs []wire.Msg) error {
		for _, w := range msgs {
			if err := site.HandleBroadcast(fromWireMsg(w)); err != nil {
				return err
			}
		}
		return nil
	}
	if out.c, err = wire.Dial(cfg); err != nil {
		return site, nil, err
	}
	return site, out.c, nil
}

// wireSender is a site's BatchSender over its SiteConn: one msg-block per
// outbox. The lock keeps one goroutine at a time in SendMsgs, as the
// SiteConn requires, when several feeders share a site.
type wireSender struct {
	c *wire.SiteConn

	mu    sync.Mutex
	batch []wire.Msg //distlint:guarded-by mu
}

// Send implements Sender: one message as its own block.
func (s *wireSender) Send(m Message) error { return s.SendAll([]Message{m}) }

// SendAll implements BatchSender: the whole outbox as one block.
func (s *wireSender) SendAll(ms []Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch = s.batch[:0]
	for _, m := range ms {
		s.batch = append(s.batch, toWireMsg(m))
	}
	err := s.c.SendMsgs(s.batch)
	clear(s.batch) // the frame holds the bytes; release the vectors
	return err
}
