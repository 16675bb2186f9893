package node

import (
	"fmt"
	"sync"

	"repro/internal/hh"
)

// HHSite is the site half of heavy-hitters protocol P2 made deployable:
// hh.P2Site (Algorithm 4.3, defined once in internal/hh) behind a mutex.
// Feed it items from any goroutine and deliver coordinator broadcasts from
// the transport's receive loop; it emits messages through the Sender.
//
// Locking discipline: the half runs under the lock and ships into an
// outbox; no lock is ever held across a Send, so transports may deliver
// synchronously (direct call into the coordinator) without deadlock, and
// lock order between site and coordinator never cycles.
type HHSite struct {
	id int

	mu     sync.Mutex
	half   *hh.P2Site
	sent   int64      // messages emitted (observability)
	outbox [2]Message // an item ships at most a total and an element report
	n      int

	out Sender
}

// hhSiteLink is the half's uplink: it runs with s.mu held and only fills
// the outbox.
type hhSiteLink HHSite

func (s *hhSiteLink) Scalar(site int, wi float64) {
	s.outbox[s.n] = Message{Kind: KindTotal, Site: site, Value: wi}
	s.n++
}

func (s *hhSiteLink) Element(site int, elem uint64, de float64) {
	s.outbox[s.n] = Message{Kind: KindElement, Site: site, Elem: elem, Value: de}
	s.n++
}

// NewHHSite builds site id of m running at error ε, emitting to out.
func NewHHSite(id, m int, eps float64, out Sender) (*HHSite, error) {
	if out == nil {
		return nil, fmt.Errorf("node: nil sender")
	}
	s := &HHSite{id: id, out: out}
	half, err := hh.NewP2Site(id, m, eps, (*hhSiteLink)(s))
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	s.half = half
	return s, nil
}

// ID returns the site id.
func (s *HHSite) ID() int { return s.id }

// HandleItem processes one stream arrival at this site.
func (s *HHSite) HandleItem(elem uint64, w float64) error {
	if !(w > 0) {
		return fmt.Errorf("node: need positive weight, got %v", w)
	}
	s.mu.Lock()
	s.half.Process(elem, w)
	outbox, n := s.outbox, s.n
	s.n = 0
	s.sent += int64(n)
	s.mu.Unlock()

	for i := 0; i < n; i++ {
		if err := s.out.Send(outbox[i]); err != nil {
			return err
		}
	}
	return nil
}

// HandleBroadcast applies a coordinator estimate broadcast. Messages of
// other kinds are rejected.
func (s *HHSite) HandleBroadcast(m Message) error {
	if m.Kind != KindEstimate {
		return fmt.Errorf("node: site received %v message", m.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Estimates are monotone; keep the max to tolerate reordering.
	if m.Value > s.half.Estimate() {
		s.half.SetEstimate(m.Value)
	}
	return nil
}

// Sent returns how many messages this site has emitted.
func (s *HHSite) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Estimate returns the site's current view of Ŵ.
func (s *HHSite) Estimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.half.Estimate()
}
