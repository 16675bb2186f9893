package node

import (
	"fmt"

	"repro/internal/hh"
	"repro/internal/sketch"
)

// HHCoordinator is the coordinator half of heavy-hitters protocol P2 made
// deployable: hh.P2Coordinator (Algorithm 4.4, defined once in internal/hh)
// behind a mutex, plus the traffic ledger and the broadcast Sender.
// Thread-safe; no lock is held across broadcast sends.
type HHCoordinator struct {
	eps    float64
	ledger // mu guards half too
	half   *hh.P2Coordinator
}

// NewHHCoordinator builds the coordinator for m sites at error ε.
// broadcast delivers one message to every site.
func NewHHCoordinator(m int, eps float64, broadcast Sender) (*HHCoordinator, error) {
	if err := hh.CheckParams(m, eps); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if broadcast == nil {
		return nil, fmt.Errorf("node: nil broadcast sender")
	}
	return &HHCoordinator{
		eps:    eps,
		ledger: ledger{broadcast: broadcast},
		half:   hh.NewP2Coordinator(m),
	}, nil
}

// Handle processes one site message.
func (c *HHCoordinator) Handle(m Message) error {
	c.mu.Lock()
	var toSend *Message
	switch m.Kind {
	case KindTotal:
		c.received++
		if what, broadcast := c.half.Scalar(m.Value); broadcast {
			toSend = c.broadcastLocked(what)
		}
	case KindElement:
		c.received++
		c.half.Element(m.Elem, m.Value)
	default:
		c.mu.Unlock()
		return fmt.Errorf("node: coordinator received %v message", m.Kind)
	}
	c.mu.Unlock()
	return c.send(toSend)
}

// Estimate returns Ŵ_e for an element.
func (c *HHCoordinator) Estimate(elem uint64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.half.Estimate(elem)
}

// EstimateTotal returns the running Ŵ.
func (c *HHCoordinator) EstimateTotal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.half.EstimateTotal()
}

// HeavyHitters returns every element with Ŵ_e/Ŵ ≥ φ − ε/2, sorted by
// descending estimate (the paper's query rule).
//
//distlint:unreachable-ok the lock-step tests read it until ROADMAP 18(c) deletes internal/node
func (c *HHCoordinator) HeavyHitters(phi float64) []sketch.WeightedElement {
	if phi <= 0 || phi > 1 {
		return nil
	}
	c.mu.Lock()
	out := c.half.Candidates((phi - c.eps/2) * c.half.EstimateTotal())
	c.mu.Unlock()
	sketch.SortByWeightDesc(out)
	return out
}
