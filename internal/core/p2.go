package core

import "fmt"

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
	*P2Coordinator            // m, ε, the tally, BᵀB and the query surface
	mode           IngestMode // ProcessRows arithmetic (see IngestMode)

	scratch p2Scratch // one for all m sites: they never run concurrently
	sites   []P2Site
}

// p2Direct is the simulator's uplink: each message reaches the coordinator
// half at once, and a broadcast it makes due reaches every site before the
// next row.
type p2Direct P2

func (p *p2Direct) Scalar(_ int, fj float64) {
	if fhat, broadcast := p.P2Coordinator.Scalar(fj); broadcast {
		for i := range p.sites {
			p.sites[i].SetEstimate(fhat)
		}
	}
}

func (p *p2Direct) Row(_ int, row []float64) { p.P2Coordinator.Row(row) }

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

// NewP2ShipFraction builds P2 with an explicit ship fraction in (0, 1]
// (see P2Site.shipFrac); used by the ablation benchmarks.
func NewP2ShipFraction(m int, eps float64, d int, shipFrac float64) *P2 {
	validateParams(m, eps, d)
	if shipFrac <= 0 || shipFrac > 1 {
		panic(fmt.Sprintf("core: need 0 < shipFrac ≤ 1, got %v", shipFrac))
	}
	return newP2(m, eps, d, shipFrac, func() siteStore { return newP2Gram(d) })
}

// newP2 builds the simulator over sites holding B_j in newStore's stores,
// from parameters the caller has validated.
func newP2(m int, eps float64, d int, shipFrac float64, newStore func() siteStore) *P2 {
	p := &P2{P2Coordinator: NewP2Coordinator(m, eps, d), sites: make([]P2Site, m)}
	for i := range p.sites {
		p.sites[i] = makeP2Site(i, m, eps, d, shipFrac, (*p2Direct)(p), &p.scratch, newStore())
	}
	return p
}

// ProcessRows implements Tracker (Algorithm 5.3). In exact mode each row is
// a one-row P2Site.ProcessBlock — the per-row step bit for bit, every
// threshold checked at its exact row index. In fast mode the whole block
// folds through one ProcessBlock.
//
//distlint:hotpath
func (p *P2) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.Dim())
	s := &p.sites[site]
	if p.mode == IngestFast {
		mustP2(s.ProcessBlock(rows))
		return
	}
	for i := range rows {
		mustP2(s.ProcessBlock(rows[i : i+1]))
	}
}

// mustP2 panics with a half's eigensolver failure: Tracker has no error return.
func mustP2(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// Decompositions returns the number of site eigendecompositions performed,
// the protocol's dominant computational cost.
//
//distlint:unreachable-ok ROADMAP 3(e) publishes it per tracker; TestDecompositionShipRate reads it today
func (p *P2) Decompositions() int64 { return p.scratch.decomps }

// DecompositionsIdle returns how many of those decompositions shipped
// nothing, since construction or restore (see TestDecompositionShipRate).
// Observability only — not checkpointed.
//
//distlint:unreachable-ok ROADMAP 3(e) publishes it per tracker; TestDecompositionShipRate reads it today
func (p *P2) DecompositionsIdle() int64 { return p.scratch.decompsIdle }
