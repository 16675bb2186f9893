package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// P2 is the deterministic SVD-threshold protocol of Section 5.2
// (Algorithms 5.3/5.4), the paper's headline result. Site j accumulates its
// unsent rows in B_j and, whenever some direction's squared norm
// ‖B_j v_ℓ‖² = σ_ℓ² reaches (ε/m)·F̂, ships the scaled singular vector
// σ_ℓ·v_ℓ to the coordinator and removes that direction from B_j. A scalar
// side-channel maintains F̂ ≈ ‖A‖²_F exactly as in heavy-hitters P2.
//
// Guarantee (Theorem 4): 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F at all times.
// Communication: O((m/ε)·log(βN)) messages.
//
// This simulator is m site halves (P2Site, which carries the implementation
// notes) and one coordinator half (P2Coordinator) joined by a direct call:
// every message is tallied and delivered at once, and a broadcast reaches
// every site before the next row — the bit-exact specification the golden
// checkpoints pin.
type P2 struct {
	m, d int
	eps  float64
	acct *stream.Accountant
	mode IngestMode // ProcessRows arithmetic (see IngestMode)

	scratch p2Scratch // one for all m sites: they never run concurrently
	sites   []P2Site
	coord   *P2Coordinator
}

// p2Direct is the simulator's uplink: tally, deliver to the coordinator half
// and, on a broadcast, set every site's F̂ before returning.
type p2Direct P2

func (p *p2Direct) Scalar(_ int, fj float64) {
	p.acct.SendUp(1)
	if fhat, broadcast := p.coord.Scalar(fj); broadcast {
		for i := range p.sites {
			p.sites[i].SetEstimate(fhat)
		}
		p.acct.Broadcast(1)
	}
}

func (p *p2Direct) Row(_ int, row []float64) {
	p.acct.SendUp(1)
	p.coord.Row(row)
}

// NewP2 builds the protocol for m sites, error ε, dimension d, in the
// byte-identical exact ingest mode.
func NewP2(m int, eps float64, d int) *P2 { return NewP2ShipFraction(m, eps, d, 0.5) }

// NewP2Fast builds the protocol in the blocked fast ingest mode: ProcessRows
// folds whole blocks into the site Gram with one rank-k update and runs
// decompositions per block instead of per row (see IngestFast for the
// documented relaxations).
func NewP2Fast(m int, eps float64, d int) *P2 {
	p := NewP2(m, eps, d)
	p.mode = IngestFast
	return p
}

// Mode returns the tracker's ingest mode.
func (p *P2) Mode() IngestMode { return p.mode }

// NewP2ShipFraction builds P2 with an explicit ship fraction in (0, 1]
// (see P2Site.shipFrac); used by the ablation benchmarks.
func NewP2ShipFraction(m int, eps float64, d int, shipFrac float64) *P2 {
	validateParams(m, eps, d)
	if shipFrac <= 0 || shipFrac > 1 {
		panic(fmt.Sprintf("core: need 0 < shipFrac ≤ 1, got %v", shipFrac))
	}
	p := &P2{
		m: m, d: d, eps: eps, acct: stream.NewAccountant(m),
		sites: make([]P2Site, m), coord: NewP2Coordinator(m, d),
	}
	for i := range p.sites {
		p.sites[i] = makeP2Site(i, m, eps, d, shipFrac, (*p2Direct)(p), &p.scratch)
	}
	return p
}

// Name implements Tracker.
func (p *P2) Name() string { return "P2" }

// Dim implements Tracker.
func (p *P2) Dim() int { return p.d }

// Eps implements Tracker.
func (p *P2) Eps() float64 { return p.eps }

// ProcessRow implements Tracker (Algorithm 5.3).
func (p *P2) ProcessRow(site int, row []float64) {
	validateSite(site, p.m)
	validateRow(row, p.d)
	mustP2(p.sites[site].ProcessRow(row))
}

// ProcessRows implements BatchTracker. In exact mode it is the per-row
// state machine minus the per-call validation: every threshold check runs
// at its exact row index and the message tallies match row-at-a-time
// ingestion bit for bit. In fast mode the block folds through
// P2Site.ProcessBlock.
//
//distlint:hotpath
func (p *P2) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.d)
	s := &p.sites[site]
	if p.mode == IngestFast {
		mustP2(s.ProcessBlock(rows))
		return
	}
	for _, row := range rows {
		mustP2(s.ProcessRow(row))
	}
}

// mustP2 panics with a half's eigensolver failure: Tracker has no error return.
func mustP2(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// Gram implements Tracker.
func (p *P2) Gram() *matrix.Sym { return p.coord.Gram().Clone() }

// Sites implements SiteCounter.
func (p *P2) Sites() int { return p.m }

// AccumulateGram implements GramAccumulator: the coordinator estimate folds
// into dst without allocating.
func (p *P2) AccumulateGram(dst *matrix.Sym, w float64) { dst.AddScaledSym(w, p.coord.Gram()) }

// EstimateFrobenius implements Tracker.
func (p *P2) EstimateFrobenius() float64 { return p.coord.Estimate() }

// Stats implements Tracker.
func (p *P2) Stats() stream.Stats { return p.acct.Stats() }

// Decompositions returns the number of site eigendecompositions performed,
// the protocol's dominant computational cost.
func (p *P2) Decompositions() int64 { return p.scratch.decomps }

// DecompositionsIdle returns how many of those decompositions shipped
// nothing, since construction or restore (see TestDecompositionShipRate).
// Observability only — not checkpointed.
func (p *P2) DecompositionsIdle() int64 { return p.scratch.decompsIdle }
