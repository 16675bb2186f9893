package core

import (
	"fmt"
	"math"

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
// Implementation notes. B_j is carried as its Gram matrix G_j = B_jᵀB_j
// (O(d²) space): appending a row is a rank-1 update, the singular pairs of
// B_j are the eigenpairs of G_j, and deleting a direction zeroes its
// eigenvalue — all exact. The svd is run in batch mode, as licensed by the
// paper: after a full decomposition with top eigenvalue λ₁, no direction
// can reach λ₁ + (new mass) until that much Frobenius mass arrives, so the
// site defers the next decomposition until λ₁ + newMass ≥ (ε/m)·F̂ — an
// exact bound, never a heuristic. To avoid re-decomposing every row when λ₁
// sits just under the threshold, a decomposition ships every direction with
// σ_ℓ² ≥ (ε/2m)·F̂; shipping more directions than strictly required never
// hurts the error guarantee and at most doubles the message count.
type P2 struct {
	m, d int
	eps  float64
	acct *stream.Accountant

	// shipFrac is the fraction of the (ε/m)·F̂ limit at which a
	// decomposition ships a direction. 0.5 (default) halves the
	// decomposition count at the price of ≤ 2× messages; 1.0 ships only
	// what Theorem 4 strictly requires. Exposed for the ablation study.
	shipFrac float64
	decomps  int64      // total eigendecompositions across sites (observability)
	mode     IngestMode // ProcessRows arithmetic (see IngestMode)
	// decompsIdle: those of decomps that shipped nothing (λ₁ < shipThresh).
	// Observability only — not checkpointed, zero again after a restore.
	decompsIdle int64

	// Reusable scratch shared by the decomposition step and the fast block
	// path; sized on first use, so the steady-state ingest path allocates
	// nothing.
	eigWS   *matrix.EigWorkspace
	shipRow []float64     // σ·v staging for shipped directions
	wbuf    []float64     // per-block row norms
	pack    *matrix.Dense // column-major packing for Sym.AddBlock

	sites []p2site
	// Coordinator state.
	gram      *matrix.Sym // BᵀB from received σv rows
	coordFhat float64     // coordinator's running F̂
	siteFhat  float64     // F̂ as known to the sites (last broadcast)
	nmsg      int
}

type p2site struct {
	gram     *matrix.Sym // G_j = B_jᵀB_j of unsent rows
	fdelta   float64     // F_j: unsent scalar mass for the F̂ side-channel
	lamBound float64     // λ₁ at the last decomposition + mass added since
	// Degenerate-regime shortcut: when the unsent matrix is exactly one
	// row (common at very small ε, where the protocol approaches
	// send-everything), its SVD is that row itself and no eigendecomposition
	// is needed.
	soleRow []float64
	empty   bool // gram is exactly zero
}

// NewP2 builds the protocol for m sites, error ε, dimension d, in the
// byte-identical exact ingest mode.
func NewP2(m int, eps float64, d int) *P2 {
	return NewP2ShipFraction(m, eps, d, 0.5)
}

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
// (see the shipFrac field); used by the ablation benchmarks.
func NewP2ShipFraction(m int, eps float64, d int, shipFrac float64) *P2 {
	validateParams(m, eps, d)
	if shipFrac <= 0 || shipFrac > 1 {
		panic(fmt.Sprintf("core: need 0 < shipFrac ≤ 1, got %v", shipFrac))
	}
	p := &P2{
		m:         m,
		d:         d,
		eps:       eps,
		acct:      stream.NewAccountant(m),
		shipFrac:  shipFrac,
		sites:     make([]p2site, m),
		gram:      matrix.NewSym(d),
		coordFhat: 1,
		siteFhat:  1,
	}
	for i := range p.sites {
		p.sites[i].gram = matrix.NewSym(d)
		p.sites[i].empty = true
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
	p.processRow(&p.sites[site], row)
}

// ProcessRows implements BatchTracker. In exact mode it is the per-row
// state machine minus the per-call validation: every threshold check runs
// at its exact row index and the message tallies match row-at-a-time
// ingestion bit for bit. In fast mode the block folds through processBlock.
//
//distlint:hotpath
func (p *P2) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.d)
	s := &p.sites[site]
	if p.mode == IngestFast {
		p.processBlock(s, rows)
		return
	}
	for _, row := range rows {
		p.processRow(s, row)
	}
}

// processBlock is the fast-mode batch step of Algorithm 5.3: the scalar F̂
// side-channel still fires at its exact row indices (it reads only the
// running mass, never the Gram), but the rows fold into the site Gram as
// one rank-k block update and the deferred-svd bound λ₁ + newMass is
// settled once over the whole block — one decomposition per crossing block
// instead of one per crossing row.
//
//distlint:hotpath
func (p *P2) processBlock(s *p2site, rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	p.wbuf = matrix.NormSqRows(rows, p.wbuf)

	// Scalar side-channel at exact per-row indices.
	var mass float64
	for _, w := range p.wbuf {
		mass += w
		s.fdelta += w
		if s.fdelta >= (p.eps/float64(p.m))*p.siteFhat {
			p.acct.SendUp(1)
			p.coordScalar(s.fdelta)
			s.fdelta = 0
		}
	}

	// One block update; the exact deferral bound accrues the block's mass.
	if p.pack == nil {
		p.pack = matrix.NewDense(0, 0)
	}
	s.gram.AddBlock(rows, p.pack)
	s.lamBound += mass
	if s.empty && len(rows) == 1 {
		s.soleRow = append(s.soleRow[:0], rows[0]...) //distlint:alloc-ok grows to one row length once, then reused
	} else {
		s.soleRow = nil
	}
	s.empty = false

	if s.lamBound >= (p.eps/float64(p.m))*p.siteFhat {
		if s.soleRow != nil {
			// Single-row site: svd(B_j) is the row itself.
			p.acct.SendUp(1)
			p.gram.AddOuter(1, s.soleRow)
			s.gram.Reset()
			s.lamBound = 0
			s.soleRow = nil
			s.empty = true
			return
		}
		p.decomposeAndSend(s)
	}
}

// processRow is the validated per-row step of Algorithm 5.3.
//
//distlint:hotpath
func (p *P2) processRow(s *p2site, row []float64) {
	w := matrix.NormSq(row)

	// Scalar side-channel for F̂.
	s.fdelta += w
	if s.fdelta >= (p.eps/float64(p.m))*p.siteFhat {
		p.acct.SendUp(1)
		p.coordScalar(s.fdelta)
		s.fdelta = 0
	}

	// Row accumulation with the exact deferred-svd bound.
	s.gram.AddOuter(1, row)
	s.lamBound += w
	if s.empty {
		s.soleRow = append(s.soleRow[:0], row...) //distlint:alloc-ok grows to one row length once, then reused
		s.empty = false
	} else {
		s.soleRow = nil
	}
	if s.lamBound >= (p.eps/float64(p.m))*p.siteFhat {
		if s.soleRow != nil {
			// B_j is the single row a: svd(B_j) = (‖a‖, a/‖a‖), so the
			// shipped σ·v is the row itself.
			p.acct.SendUp(1)
			p.gram.AddOuter(1, s.soleRow)
			s.gram.Reset()
			s.lamBound = 0
			s.soleRow = nil
			s.empty = true
			return
		}
		p.decomposeAndSend(s)
	}
}

// decomposeAndSend runs the svd step of Algorithm 5.3 on one site: every
// direction with σ² ≥ (ε/2m)·F̂ is shipped as the row σ·v and zeroed. All
// scratch — the eigensolver workspace, the shipped-row staging, the
// reconstruction column — is per-tracker and reused, so the steady-state
// path allocates nothing; reusing fully-overwritten buffers leaves the
// values bit-identical to the allocating path, keeping exact mode exact.
func (p *P2) decomposeAndSend(s *p2site) {
	p.decomps++
	if p.eigWS == nil {
		p.eigWS = matrix.NewEigWorkspace()
	}
	vals, vecs, err := matrix.EigSymWork(s.gram, p.eigWS)
	if err != nil {
		vals, vecs, err = matrix.JacobiEigSym(s.gram)
		if err != nil {
			panic("core: P2 eigendecomposition failed: " + err.Error())
		}
	}
	shipThresh := p.shipFrac * (p.eps / float64(p.m)) * p.siteFhat
	sent := false
	if p.shipRow == nil {
		p.shipRow = make([]float64, p.d)
	}
	r := p.shipRow
	for k, lam := range vals {
		if lam < shipThresh {
			break // sorted descending
		}
		sigma := math.Sqrt(lam)
		for i := 0; i < p.d; i++ {
			r[i] = sigma * vecs.At(i, k)
		}
		p.acct.SendUp(1) // one row-sized vector message
		p.gram.AddOuter(1, r)
		vals[k] = 0
		sent = true
	}
	top := 0.0
	for _, lam := range vals {
		if lam > top {
			top = lam
		}
	}
	if sent {
		// vecs and vals live in the eigensolver workspace, so rebuilding the
		// site Gram in place is safe.
		matrix.ReconstructIntoWork(s.gram, vecs, vals, r)
		if top <= 0 {
			s.empty = true
			s.soleRow = nil
		}
	} else {
		p.decompsIdle++
	}
	// Exact deferral bound for the next decomposition: the remaining top
	// eigenvalue plus future mass.
	s.lamBound = top
}

// coordScalar is Algorithm 5.4's scalar handler.
func (p *P2) coordScalar(fj float64) {
	p.coordFhat += fj
	p.nmsg++
	if p.nmsg >= p.m {
		p.nmsg = 0
		p.siteFhat = p.coordFhat
		p.acct.Broadcast(1)
	}
}

// Gram implements Tracker.
func (p *P2) Gram() *matrix.Sym { return p.gram.Clone() }

// Sites implements SiteCounter.
func (p *P2) Sites() int { return p.m }

// AccumulateGram implements GramAccumulator: the coordinator estimate folds
// into dst without allocating.
func (p *P2) AccumulateGram(dst *matrix.Sym, w float64) { dst.AddScaledSym(w, p.gram) }

// EstimateFrobenius implements Tracker.
func (p *P2) EstimateFrobenius() float64 { return p.coordFhat }

// Stats implements Tracker.
func (p *P2) Stats() stream.Stats { return p.acct.Stats() }

// Decompositions returns the number of site eigendecompositions performed,
// the protocol's dominant computational cost.
func (p *P2) Decompositions() int64 { return p.decomps }

// DecompositionsIdle returns how many of those decompositions shipped
// nothing, since construction or restore (see TestDecompositionShipRate).
func (p *P2) DecompositionsIdle() int64 { return p.decompsIdle }
