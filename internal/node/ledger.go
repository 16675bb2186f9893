package node

import "sync"

// ledger is what a runtime coordinator adds to its protocol half: the lock,
// the traffic counters, the broadcast history and the fan-out Sender.
type ledger struct {
	mu       sync.Mutex
	received int64
	bcasts   int64
	history  []float64 // every broadcast estimate, oldest first

	broadcast Sender // fan-out to all sites (transport's responsibility)
}

// broadcastLocked records a due broadcast and returns the message to send
// once the lock is released.
func (l *ledger) broadcastLocked(est float64) *Message {
	l.bcasts++
	l.history = append(l.history, est)
	return &Message{Kind: KindEstimate, Value: est}
}

// send delivers a due broadcast, if any; never call it with mu held.
func (l *ledger) send(toSend *Message) error {
	if toSend == nil {
		return nil
	}
	return l.broadcast.Send(*toSend)
}

// Received returns the number of site messages processed.
func (l *ledger) Received() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.received
}

// Broadcasts returns the number of estimate broadcasts issued.
func (l *ledger) Broadcasts() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bcasts
}

// EstimateHistory returns every broadcast estimate in order, the estimate's
// growth trajectory (one entry per broadcast, so O((1/ε)·log(βN)) entries).
func (l *ledger) EstimateHistory() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.history...)
}
