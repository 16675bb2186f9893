package node

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
)

// MatSite is the site half of matrix tracking protocol P2 made deployable:
// core.P2Site (Algorithm 5.3, defined once in internal/core) behind a mutex.
// The half runs under the lock and ships into an outbox; the outbox is sent
// after the lock is released — no lock is held across a Send — so a
// broadcast the coordinator answers with reaches the half before the next
// step, never in the middle of one.
type MatSite struct {
	d    int
	fast bool // blocked fast ingest (see core.IngestFast); exact otherwise

	mu     sync.Mutex
	half   *core.P2Site
	sent   int64
	outbox []Message // what the running step has shipped so far

	out Sender
}

// matSiteLink is the half's uplink: it runs with s.mu held and only fills
// the outbox.
type matSiteLink MatSite

// Scalar appends a KindTotal report — or adds to the one just before it. A
// block scanned under the lock sees a frozen F̂, so on a cold start (or an
// intra-block mass spike) the threshold can fire on row after row; those
// crossings coalesce into one message carrying their sum, which leaves the
// coordinator's estimate unchanged and the message count bounded.
func (s *matSiteLink) Scalar(site int, fj float64) {
	if n := len(s.outbox); n > 0 && s.outbox[n-1].Kind == KindTotal {
		s.outbox[n-1].Value += fj
		return
	}
	s.outbox = append(s.outbox, Message{Kind: KindTotal, Site: site, Value: fj})
}

// Row appends a KindRow message owning a copy of the half's staging row.
func (s *matSiteLink) Row(site int, row []float64) {
	s.outbox = append(s.outbox, Message{Kind: KindRow, Site: site, Vec: append([]float64(nil), row...)})
}

// NewMatSite builds site id of m at error ε for d-dimensional rows.
func NewMatSite(id, m int, eps float64, d int, out Sender) (*MatSite, error) {
	return newMatSite(id, m, eps, d, out, false)
}

// NewMatSiteFast builds the site in the blocked fast ingest mode: HandleRows
// folds whole blocks into the Gram with one rank-k update, runs the
// eigendecomposition once per crossing block, and reuses pooled scratch so
// the steady-state (no-message) block path allocates nothing. The scalar F̂
// threshold is still evaluated at every row index, but a block's crossings
// coalesce into one summed report, and row-ship messages may coalesce at
// block boundaries (see core.IngestFast).
//
//distlint:unreachable-ok the node runtime's blocked ingest mode, which no program builds until ROADMAP item 2(b) runs sites over the wire
func NewMatSiteFast(id, m int, eps float64, d int, out Sender) (*MatSite, error) {
	return newMatSite(id, m, eps, d, out, true)
}

func newMatSite(id, m int, eps float64, d int, out Sender, fast bool) (*MatSite, error) {
	if out == nil {
		return nil, fmt.Errorf("node: nil sender")
	}
	s := &MatSite{d: d, fast: fast, out: out}
	half, err := core.NewP2Site(id, m, eps, d, (*matSiteLink)(s))
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	s.half = half
	return s, nil
}

// HandleRow processes one matrix row arriving at this site. An eigensolver
// failure in the half is returned once what the step had shipped is sent.
func (s *MatSite) HandleRow(row []float64) error {
	if err := s.checkRow(row); err != nil {
		return err
	}
	s.mu.Lock()
	return s.sendStep(s.half.ProcessRow(row))
}

// HandleRows processes a batch of rows arriving at this site. In exact mode
// the lock is held across runs of rows that trigger no messages (the common
// case) and released to flush the outbox at exactly the rows where the
// per-row path would send — under the synchronous in-process wiring the
// message sequence is identical to calling HandleRow once per row. In fast
// mode the whole block is one step of the half (core.P2Site.ProcessBlock)
// and one flush. The batch is validated up front: a bad row fails the call
// before any row is ingested.
func (s *MatSite) HandleRows(rows [][]float64) error {
	for i, row := range rows {
		if err := s.checkRow(row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	if s.fast {
		s.mu.Lock()
		return s.sendStep(s.half.ProcessBlock(rows))
	}
	for i := 0; i < len(rows); {
		s.mu.Lock()
		var err error
		for i < len(rows) && len(s.outbox) == 0 && err == nil {
			err = s.half.ProcessRow(rows[i])
			i++
		}
		if err = s.sendStep(err); err != nil {
			return err
		}
	}
	return nil
}

// sendStep closes a step of the half run under the lock: it takes the
// outbox, releases the lock and sends. stepErr, the half's verdict on the
// step, wins over a send error.
func (s *MatSite) sendStep(stepErr error) error {
	outbox := s.outbox
	s.outbox = nil
	s.sent += int64(len(outbox))
	s.mu.Unlock()
	if err := sendAll(s.out, outbox); stepErr == nil {
		return err
	}
	return stepErr
}

// checkRow validates a row before ingestion: a zero row carries nothing, a
// NaN or overflowing norm would poison the Gram for every later row.
func (s *MatSite) checkRow(row []float64) error {
	if len(row) != s.d {
		return fmt.Errorf("node: row of length %d, want %d", len(row), s.d)
	}
	if w := matrix.NormSq(row); !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("node: need a positive finite row norm, got %v", w)
	}
	return nil
}

// HandleBroadcast applies a coordinator F̂ broadcast. Estimates are monotone;
// keeping the max tolerates reordering.
func (s *MatSite) HandleBroadcast(m Message) error {
	if m.Kind != KindEstimate {
		return fmt.Errorf("node: site received %v message", m.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Value > s.half.Estimate() {
		s.half.SetEstimate(m.Value)
	}
	return nil
}

// Sent returns the number of messages emitted.
//
//distlint:unreachable-ok the lock-step tests read it until ROADMAP 18(c) deletes internal/node
func (s *MatSite) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Estimate returns the site's current view of F̂.
//
//distlint:unreachable-ok the lock-step tests read it until ROADMAP 18(c) deletes internal/node
func (s *MatSite) Estimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.half.Estimate()
}
