// Package node is the deployable runtime for the paper's P2 protocols:
// thread-safe sites and coordinators for weighted heavy hitters and matrix
// tracking, decoupled from any transport, plus two ways to connect them —
// in-process (direct calls from concurrent feeder goroutines) and over the
// network on internal/wire, with its sequence numbers, acks and resume
// (wire.go; cmd/distdemo shows a full deployment on loopback).
//
// The two P2 protocols are not implemented here. Each is defined once, as a
// single-goroutine site half and coordinator half in internal/hh and
// internal/core; the sequential simulators there join the halves with a
// direct call and are the bit-exact specification. This package wraps the
// same halves in what only a deployment needs — a mutex, an outbox filled
// while the half runs under the lock and sent after it is released,
// monotone-max broadcast handling, traffic counters — and may differ from
// the simulator only in *when* a broadcast arrives. The protocols tolerate
// that by design: a site thresholds against the last estimate it received,
// and the analysis (Sections 4.2 and 5.2) only needs that estimate to be a
// lower bound on the true total, which survives arbitrary reordering
// between a site and the coordinator on an ordered channel.
package node

import (
	"fmt"
)

// MsgKind discriminates wire messages.
type MsgKind uint8

// Wire message kinds.
const (
	// KindTotal is a site→coordinator scalar: unreported total weight.
	KindTotal MsgKind = iota
	// KindElement is a site→coordinator element report: unreported weight
	// delta for one element.
	KindElement
	// KindRow is a site→coordinator matrix row (a shipped σ·v direction).
	KindRow
	// KindEstimate is a coordinator→site broadcast of the new global
	// estimate (Ŵ or F̂).
	KindEstimate
)

func (k MsgKind) String() string {
	switch k {
	case KindTotal:
		return "total"
	case KindElement:
		return "element"
	case KindRow:
		return "row"
	case KindEstimate:
		return "estimate"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Message is the one message type of both protocols; it crosses the
// network as a wire.Msg.
type Message struct {
	Kind  MsgKind
	Site  int
	Elem  uint64    // KindElement: the element label
	Value float64   // KindTotal/KindElement: weight; KindEstimate: Ŵ or F̂
	Vec   []float64 // KindRow: the row payload
}

// Sender delivers a message to the other end of a link. Implementations
// must be safe for concurrent use.
type Sender interface {
	Send(Message) error
}

// SenderFunc adapts a function to Sender.
type SenderFunc func(Message) error

// Send implements Sender.
func (f SenderFunc) Send(m Message) error { return f(m) }

// BatchSender is a Sender that can deliver a whole outbox in one call —
// the receiving end amortizes its locking across the batch. The blocked
// site paths probe for it; plain Senders get the messages one at a time.
type BatchSender interface {
	Sender
	SendAll(ms []Message) error
}

// sendAll delivers an outbox through out's batch path when it has one.
func sendAll(out Sender, ms []Message) error {
	if bs, ok := out.(BatchSender); ok {
		return bs.SendAll(ms)
	}
	for _, m := range ms {
		if err := out.Send(m); err != nil {
			return err
		}
	}
	return nil
}
