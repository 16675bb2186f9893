package core

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// P2Uplink is the site→coordinator link of matrix P2: the two message kinds
// of Algorithm 5.3. A site half calls it once per message, never per row.
// The P2 simulator implements it as a direct call into its P2Coordinator,
// internal/node as an outbox filled under the site's lock.
type P2Uplink interface {
	// Scalar reports the site's unsent Frobenius mass F_j.
	Scalar(site int, fj float64)
	// Row ships one direction σ·v. row is valid only during the call.
	Row(site int, row []float64)
}

// p2Scratch is the site step's reusable working memory and decomposition
// counters, sized on first use so the steady-state ingest path allocates
// nothing. Halves that never run concurrently may share one: a simulator's m
// sites do, so its footprint does not grow with m; NewP2Site's owns its own.
type p2Scratch struct {
	eigWS   *matrix.EigWorkspace
	shipRow []float64     // σ·v staging, also the reconstruction column
	wbuf    []float64     // per-block row norms
	pack    *matrix.Dense // column-major packing for Sym.AddBlock

	decomps     int64 // eigendecompositions run
	decompsIdle int64 // those that shipped nothing (λ₁ < shipThresh)
}

// P2Site is the site half of matrix P2 (Algorithm 5.3): the one definition
// of the site step, single-goroutine, composed by the P2 simulator (m of
// them over a direct call) and wrapped in a lock by internal/node.
//
// B_j is carried as its Gram matrix G_j = B_jᵀB_j (O(d²) space): appending a
// row is a rank-1 update, the singular pairs of B_j are the eigenpairs of
// G_j, and deleting a direction zeroes its eigenvalue — all exact. The svd
// is run in batch mode, as licensed by the paper: after a full decomposition
// with top eigenvalue λ₁, no direction can reach λ₁ + (new mass) until that
// much Frobenius mass arrives, so the site defers the next decomposition
// until λ₁ + newMass ≥ (ε/m)·F̂ — an exact bound, never a heuristic. To
// avoid re-decomposing every row when λ₁ sits just under the threshold, a
// decomposition ships every direction with σ_ℓ² ≥ shipFrac·(ε/m)·F̂;
// shipping more directions than strictly required never hurts the error
// guarantee and at most doubles the message count.
type P2Site struct {
	id, m, d int
	eps      float64
	// shipFrac is the fraction of the (ε/m)·F̂ limit at which a
	// decomposition ships a direction. 0.5 (default) halves the
	// decomposition count at the price of ≤ 2× messages; 1.0 ships only
	// what Theorem 4 strictly requires. Exposed for the ablation study.
	shipFrac float64
	up       P2Uplink
	scratch  *p2Scratch

	fhat     float64     // F̂ as last received (SetEstimate)
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

// NewP2Site builds site id of m at error ε for d-dimensional rows, shipping
// at the default fraction 0.5 through up.
func NewP2Site(id, m int, eps float64, d int, up P2Uplink) (*P2Site, error) {
	if err := CheckParams(m, eps, d); err != nil {
		return nil, err
	}
	if id < 0 || id >= m {
		return nil, fmt.Errorf("core: site id %d out of range [0,%d)", id, m)
	}
	s := makeP2Site(id, m, eps, d, 0.5, up, new(p2Scratch))
	return &s, nil
}

// makeP2Site is NewP2Site unvalidated, by value, over the simulator's scratch.
func makeP2Site(id, m int, eps float64, d int, shipFrac float64, up P2Uplink, scratch *p2Scratch) P2Site {
	return P2Site{
		id: id, m: m, d: d, eps: eps, shipFrac: shipFrac, up: up, scratch: scratch,
		fhat: 1, gram: matrix.NewSym(d), empty: true,
	}
}

// Estimate returns F̂ as the site last received it.
func (s *P2Site) Estimate() float64 { return s.fhat }

// SetEstimate delivers a coordinator broadcast. Any lower bound on ‖A‖²_F is
// sound (§5.2); a runtime that can see broadcasts reordered keeps the max.
func (s *P2Site) SetEstimate(fhat float64) { s.fhat = fhat }

// ProcessRow is the exact per-row step of Algorithm 5.3 for a row of length
// d. The error is an eigensolver failure (a non-finite Gram) after the row
// was ingested.
//
//distlint:hotpath
func (s *P2Site) ProcessRow(row []float64) error {
	w := matrix.NormSq(row)

	// Scalar side-channel for F̂.
	s.fdelta += w
	if s.fdelta >= (s.eps/float64(s.m))*s.fhat {
		s.up.Scalar(s.id, s.fdelta)
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
	return s.settle()
}

// ProcessBlock is the fast-mode batch step of Algorithm 5.3 (IngestFast):
// the scalar F̂ side-channel still fires at its exact row indices (it reads
// only the running mass, never the Gram), but the rows fold into the site
// Gram as one rank-k block update and the deferred-svd bound λ₁ + newMass is
// settled once over the whole block — one decomposition per crossing block
// instead of one per crossing row.
//
//distlint:hotpath
func (s *P2Site) ProcessBlock(rows [][]float64) error {
	if len(rows) == 0 {
		return nil
	}
	ws := s.scratch
	ws.wbuf = matrix.NormSqRows(rows, ws.wbuf)

	// Scalar side-channel at exact per-row indices.
	var mass float64
	for _, w := range ws.wbuf {
		mass += w
		s.fdelta += w
		if s.fdelta >= (s.eps/float64(s.m))*s.fhat {
			s.up.Scalar(s.id, s.fdelta)
			s.fdelta = 0
		}
	}

	// One block update; the exact deferral bound accrues the block's mass.
	if ws.pack == nil {
		ws.pack = matrix.NewDense(0, 0)
	}
	s.gram.AddBlock(rows, ws.pack)
	s.lamBound += mass
	if s.empty && len(rows) == 1 {
		s.soleRow = append(s.soleRow[:0], rows[0]...) //distlint:alloc-ok grows to one row length once, then reused
	} else {
		s.soleRow = nil
	}
	s.empty = false
	return s.settle()
}

// settle ships what the deferral bound says may have crossed (ε/m)·F̂.
//
//distlint:hotpath
func (s *P2Site) settle() error {
	if s.lamBound >= (s.eps/float64(s.m))*s.fhat {
		if s.soleRow == nil {
			return s.decomposeAndSend()
		}
		// B_j is the single row a: svd(B_j) = (‖a‖, a/‖a‖), so the shipped
		// σ·v is the row itself.
		s.up.Row(s.id, s.soleRow)
		s.gram.Reset()
		s.lamBound = 0
		s.soleRow = nil
		s.empty = true
	}
	return nil
}

// decomposeAndSend runs the svd step of Algorithm 5.3: every direction with
// σ² ≥ shipFrac·(ε/m)·F̂ is shipped as the row σ·v and zeroed. All scratch is
// reused and fully overwritten, so the steady-state path allocates nothing
// and stays bit-identical to an allocating one.
func (s *P2Site) decomposeAndSend() error {
	ws := s.scratch
	ws.decomps++
	if ws.eigWS == nil {
		ws.eigWS = matrix.NewEigWorkspace()
	}
	vals, vecs, err := matrix.EigSymWork(s.gram, ws.eigWS)
	if err != nil {
		vals, vecs, err = matrix.JacobiEigSym(s.gram)
		if err != nil {
			return fmt.Errorf("core: P2 eigendecomposition failed: %w", err)
		}
	}
	shipThresh := s.shipFrac * (s.eps / float64(s.m)) * s.fhat
	sent := false
	if len(ws.shipRow) != s.d {
		ws.shipRow = make([]float64, s.d)
	}
	r := ws.shipRow
	for k, lam := range vals {
		if lam < shipThresh {
			break // sorted descending
		}
		sigma := math.Sqrt(lam)
		for i := 0; i < s.d; i++ {
			r[i] = sigma * vecs.At(i, k)
		}
		s.up.Row(s.id, r) // one row-sized vector message
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
		ws.decompsIdle++
	}
	// Exact deferral bound for the next decomposition: the remaining top
	// eigenvalue plus future mass.
	s.lamBound = top
	return nil
}

// P2Coordinator is the coordinator half of matrix P2 (Algorithm 5.4): it
// adds arriving σ·v rows into BᵀB and refreshes F̂ after every m scalar
// reports. Single-goroutine; the P2 and P2SmallSpace simulators call it
// directly and internal/node wraps it in a lock.
type P2Coordinator struct {
	m    int
	gram *matrix.Sym // BᵀB from received σv rows
	fhat float64     // running F̂
	nmsg int         // scalar reports since the last broadcast
}

// NewP2Coordinator builds the coordinator half for m sites and row
// dimension d.
func NewP2Coordinator(m, d int) *P2Coordinator {
	return &P2Coordinator{m: m, gram: matrix.NewSym(d), fhat: 1}
}

// Scalar handles a site's scalar report. Every m reports it returns
// broadcast = true: fhat is then due at every site (P2Site.SetEstimate).
func (c *P2Coordinator) Scalar(fj float64) (fhat float64, broadcast bool) {
	c.fhat += fj
	c.nmsg++
	if c.nmsg >= c.m {
		c.nmsg = 0
		return c.fhat, true
	}
	return c.fhat, false
}

// Row handles a shipped direction σ·v of length d; it does not retain row.
func (c *P2Coordinator) Row(row []float64) { c.gram.AddOuter(1, row) }

// Dim returns the row dimension d.
func (c *P2Coordinator) Dim() int { return c.gram.Dim() }

// Gram returns the live BᵀB; callers clone what they keep.
func (c *P2Coordinator) Gram() *matrix.Sym { return c.gram }

// Estimate returns the running F̂.
func (c *P2Coordinator) Estimate() float64 { return c.fhat }
