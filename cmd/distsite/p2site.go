package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// p2Site is matrix P2's site half as distsite runs it (-protocol p2):
// core.P2Site (Algorithm 5.3) stepped once per block under mu. The half's
// messages fill an outbox that the caller sends as one msg-block after mu
// is released, so no lock is held across a send and a broadcast lands
// between two blocks, never inside one. Broadcasts are folded in by recv,
// which keeps the max: any lower bound on ‖A‖²_F is a sound F̂ (§5.2), so a
// broadcast that arrives late, out of order or never costs messages, never
// error. For the same reason step floors F̂ at the site's own mass: a site
// that has heard no broadcast yet thresholds against what it has seen,
// not against the start value 1.
type p2Site struct {
	mu   sync.Mutex
	half *core.P2Site //distlint:guarded-by mu
	out  *p2Outbox    //distlint:guarded-by mu
	mass float64      //distlint:guarded-by mu
}

// newP2Site builds site id of m at error ε for d-dimensional rows.
func newP2Site(id, m int, eps float64, d int) (*p2Site, error) {
	out := new(p2Outbox)
	half, err := core.NewP2Site(id, m, eps, d, out)
	if err != nil {
		return nil, err
	}
	return &p2Site{half: half, out: out}, nil
}

// step runs one block through the half and returns the messages it made
// due. They stay valid until the next step, so send them before stepping
// again. An eigensolver failure in the half is returned with what the
// step had shipped before it.
//
// Before the block, the half's F̂ is raised to the squared mass of the
// blocks already stepped: a lower bound on ‖A‖²_F that never counts the
// rows about to be tested against it.
//
//distlint:hotpath
func (s *p2Site) step(rows [][]float64) ([]wire.Msg, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.out.msgs) // release the vectors the last block shipped
	s.out.msgs = s.out.msgs[:0]
	if s.mass > s.half.Estimate() {
		s.half.SetEstimate(s.mass)
	}
	for _, row := range rows {
		s.mass += matrix.NormSq(row)
	}
	err := s.half.ProcessBlock(rows)
	return s.out.msgs, err
}

// recv folds one coordinator broadcast into the half's F̂; it is the
// SiteConn's Recv. A non-finite estimate, or any message but an
// estimate, ends the connection.
func (s *p2Site) recv(msgs []wire.Msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range msgs {
		if m.Kind != wire.MsgEstimate || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("distsite: broadcast of kind %d, value %v: want a finite F̂", m.Kind, m.Value)
		}
		if m.Value > s.half.Estimate() {
			s.half.SetEstimate(m.Value)
		}
	}
	return nil
}

// p2Outbox is the half's uplink: the half calls it inside step, under the
// site's mu, and it only collects the messages.
type p2Outbox struct{ msgs []wire.Msg }

// Scalar appends a scalar report, or adds to the one just before it. A
// block runs against one F̂, so on a cold start (or a mass spike) the
// threshold can fire on row after row; those crossings coalesce into one
// message carrying their sum, which leaves the coordinator's F̂ the same
// and the message count bounded.
func (o *p2Outbox) Scalar(site int, fj float64) {
	if n := len(o.msgs); n > 0 && o.msgs[n-1].Kind == wire.MsgScalar {
		o.msgs[n-1].Value += fj
		return
	}
	o.msgs = append(o.msgs, wire.Msg{Kind: wire.MsgScalar, Site: site, Value: fj})
}

// Row appends a row message owning a copy of the half's staging row.
func (o *p2Outbox) Row(site int, row []float64) {
	o.msgs = append(o.msgs, wire.Msg{Kind: wire.MsgRow, Site: site, Vec: append([]float64(nil), row...)})
}
