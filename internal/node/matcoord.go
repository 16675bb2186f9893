package node

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
)

// MatCoordinator is the coordinator half of matrix tracking protocol P2 made
// deployable: core.P2Coordinator (Algorithm 5.4, defined once in
// internal/core) behind a mutex, plus the traffic ledger and the broadcast
// Sender. Thread-safe; no lock is held across broadcast sends.
type MatCoordinator struct {
	ledger // mu guards half too
	half   *core.P2Coordinator
}

// NewMatCoordinator builds the coordinator for m sites at error ε and row
// dimension d. broadcast delivers one message to every site.
func NewMatCoordinator(m int, eps float64, d int, broadcast Sender) (*MatCoordinator, error) {
	if err := core.CheckParams(m, eps, d); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if broadcast == nil {
		return nil, fmt.Errorf("node: nil broadcast sender")
	}
	return &MatCoordinator{
		ledger: ledger{broadcast: broadcast},
		half:   core.NewP2Coordinator(m, d),
	}, nil
}

// Handle processes one site message.
func (c *MatCoordinator) Handle(m Message) error {
	c.mu.Lock()
	toSend, err := c.handleLocked(m)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.send(toSend)
}

// HandleAll processes a batch of site messages: the coordinator half of
// the blocked ingest path. The lock is held across runs of messages that
// trigger no broadcast, and released to send at exactly the messages where
// per-message handling would broadcast, so the broadcast sequence is
// identical to calling Handle once per message. A bad message stops the
// batch at its index; the preceding messages remain applied.
func (c *MatCoordinator) HandleAll(ms []Message) error {
	for i := 0; i < len(ms); {
		c.mu.Lock()
		var toSend *Message
		for i < len(ms) && toSend == nil {
			var err error
			toSend, err = c.handleLocked(ms[i])
			if err != nil {
				c.mu.Unlock()
				return fmt.Errorf("message %d: %w", i, err)
			}
			i++
		}
		c.mu.Unlock()
		if err := c.send(toSend); err != nil {
			return err
		}
	}
	return nil
}

// handleLocked applies one message to the half with c.mu held, returning a
// broadcast to send after the lock is released.
func (c *MatCoordinator) handleLocked(m Message) (*Message, error) {
	switch m.Kind {
	case KindTotal:
		c.received++
		if fhat, broadcast := c.half.Scalar(m.Value); broadcast {
			return c.broadcastLocked(fhat), nil
		}
	case KindRow:
		if len(m.Vec) != c.half.Dim() {
			return nil, fmt.Errorf("node: row of length %d, want %d", len(m.Vec), c.half.Dim())
		}
		c.received++
		c.half.Row(m.Vec)
	default:
		return nil, fmt.Errorf("node: coordinator received %v message", m.Kind)
	}
	return nil, nil
}

// Gram returns a copy of the coordinator's BᵀB approximation.
func (c *MatCoordinator) Gram() *matrix.Sym {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.half.Gram().Clone()
}

// EstimateFrobenius returns the running F̂.
func (c *MatCoordinator) EstimateFrobenius() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.half.Estimate()
}
