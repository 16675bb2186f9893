package core

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// P2Uplink is the site→coordinator link of matrix P2: the two message kinds
// of Algorithm 5.3. A site half calls it once per message, never per row.
// The P2 simulator implements it as a direct call into its P2Coordinator,
// cmd/distsite as an outbox filled under the site's lock and sent as one
// wire msg-block.
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
	shipRow []float64   // σ·v staging
	wbuf    []float64   // per-block row norms
	diff    *matrix.Sym // an fdPair's Ã_jᵀÃ_j − S̃_jᵀS̃_j

	decomps     int64 // eigendecompositions run
	decompsIdle int64 // those that shipped nothing (λ₁ < shipThresh)
}

// siteStore holds B_j, a site's unsent rows, for P2Site: p2Gram exactly
// (P2), fdPair as §5.2's two sketches (P2SmallSpace).
type siteStore interface {
	// fold appends a block of rows to B_j.
	fold(rows [][]float64)
	// sole returns B_j when it is exactly one row and the store tracks
	// that, else nil.
	sole() []float64
	// gram returns B_jᵀB_j to decompose, valid until the next call.
	gram(ws *p2Scratch) *matrix.Sym
	// remove takes the shipped direction row = σ·v (λ = σ²) out of B_j.
	remove(row, v []float64, lam float64)
	// drained marks B_j as zero: its sole row shipped, or a decomposition
	// left nothing above 0.
	drained()
}

// P2Site is the site half of matrix P2 (Algorithm 5.3): the one definition
// of the site step, single-goroutine, composed by the P2 and P2SmallSpace
// simulators (m of them over a direct call) and wrapped in a lock by
// cmd/distsite.
//
// B_j lives in a siteStore; P2's (p2Gram) is its Gram matrix. The svd is
// run in batch mode, as licensed by the paper: after a full decomposition
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

	fhat     float64   // F̂ as last received (SetEstimate)
	b        siteStore // B_j
	fdelta   float64   // F_j: unsent scalar mass for the F̂ side-channel
	lamBound float64   // λ₁ at the last decomposition + mass added since
}

// p2Gram is B_j as its Gram matrix G_j = B_jᵀB_j (O(d²) space): appending
// a row is a rank-1 update, the singular pairs of B_j are the eigenpairs of
// G_j, and removing a shipped direction is the downdate G_j −= λ·v·vᵀ.
type p2Gram struct {
	g *matrix.Sym // G_j of unsent rows
	// Degenerate-regime shortcut: when the unsent matrix is exactly one
	// row (common at very small ε, where the protocol approaches
	// send-everything), its SVD is that row itself and no eigendecomposition
	// is needed.
	soleRow []float64
	empty   bool // g is zero
}

func newP2Gram(d int) *p2Gram { return &p2Gram{g: matrix.NewSym(d), empty: true} }

//distlint:hotpath
func (b *p2Gram) fold(rows [][]float64) {
	b.g.AddBlock(rows)
	if b.empty && len(rows) == 1 {
		b.soleRow = append(b.soleRow[:0], rows[0]...) //distlint:alloc-ok grows to one row length once, then reused
	} else {
		b.soleRow = nil
	}
	b.empty = false
}

func (b *p2Gram) sole() []float64 { return b.soleRow }

func (b *p2Gram) gram(*p2Scratch) *matrix.Sym { return b.g }

func (b *p2Gram) remove(_, v []float64, lam float64) { b.g.AddOuter(-lam, v) }

// drained zeroes G_j after its sole row shipped (the row was all of it);
// after a decomposition it keeps the roundoff left below 0.
func (b *p2Gram) drained() {
	if b.soleRow != nil {
		b.g.Reset()
	}
	b.soleRow = nil
	b.empty = true
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
	s := makeP2Site(id, m, eps, d, 0.5, up, new(p2Scratch), newP2Gram(d))
	return &s, nil
}

// makeP2Site is NewP2Site unvalidated, by value, over the simulator's
// scratch and store.
func makeP2Site(id, m int, eps float64, d int, shipFrac float64, up P2Uplink, scratch *p2Scratch, b siteStore) P2Site {
	return P2Site{
		id: id, m: m, d: d, eps: eps, shipFrac: shipFrac, up: up, scratch: scratch,
		fhat: 1, b: b,
	}
}

// Estimate returns F̂ as the site last received it.
func (s *P2Site) Estimate() float64 { return s.fhat }

// SetEstimate delivers a coordinator broadcast. Any lower bound on ‖A‖²_F is
// sound (§5.2); a runtime that can see broadcasts reordered keeps the max.
func (s *P2Site) SetEstimate(fhat float64) { s.fhat = fhat }

// ProcessBlock is the site step of Algorithm 5.3 over a block of rows of
// length d. The scalar F̂ side-channel fires at its exact row indices (it
// reads only the running mass, never B_j), the rows fold into the store as
// one block, and the deferred-svd bound λ₁ + newMass is settled once over
// the whole block: one decomposition per crossing block (IngestFast). A
// one-row block is the paper's per-row step bit for bit (IngestExact):
// NormSqRows is NormSq, AddBlock below its cutoff is AddOuter, AppendRows
// is Append. The error is an eigensolver failure (a non-finite Gram) after
// the block was ingested.
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
	s.b.fold(rows)
	s.lamBound += mass
	return s.settle()
}

// settle ships what the deferral bound says may have crossed (ε/m)·F̂.
//
//distlint:hotpath
func (s *P2Site) settle() error {
	if s.lamBound >= (s.eps/float64(s.m))*s.fhat {
		row := s.b.sole()
		if row == nil {
			return s.decomposeAndSend()
		}
		// B_j is the single row a: svd(B_j) = (‖a‖, a/‖a‖), so the shipped
		// σ·v is the row itself.
		s.up.Row(s.id, row)
		s.b.drained()
		s.lamBound = 0
	}
	return nil
}

// decomposeAndSend runs the svd step of Algorithm 5.3: every direction with
// σ² ≥ shipFrac·(ε/m)·F̂ is shipped as the row σ·v and removed from B_j.
// All scratch is reused, so the steady-state path allocates nothing.
func (s *P2Site) decomposeAndSend() error {
	ws := s.scratch
	ws.decomps++
	if ws.eigWS == nil {
		ws.eigWS = matrix.NewEigWorkspace()
	}
	if len(ws.shipRow) != s.d {
		ws.shipRow = make([]float64, s.d)
	}
	thresh := s.shipFrac * (s.eps / float64(s.m)) * s.fhat
	// Decompose only what ships (matrix.EigAbove); JacobiEigSym answers
	// where that fails.
	g := s.b.gram(ws)
	vals, vecs, below, err := matrix.EigAbove(g, thresh, ws.eigWS)
	if err != nil {
		if vals, vecs, below, err = jacobiAbove(g, thresh); err != nil {
			return fmt.Errorf("core: P2 eigendecomposition failed: %w", err)
		}
	}
	for k, lam := range vals {
		v := vecs.Row(k)
		sigma := math.Sqrt(lam)
		for i, x := range v {
			ws.shipRow[i] = sigma * x
		}
		s.up.Row(s.id, ws.shipRow) // one row-sized vector message
		s.b.remove(ws.shipRow, v, lam)
	}
	// Exact deferral bound for the next decomposition: the largest
	// eigenvalue left plus future mass, floored at 0 (an fdPair's sketch
	// difference can leave it below).
	top := max(below, 0)
	if len(vals) == 0 {
		ws.decompsIdle++
	} else if top <= 0 {
		s.b.drained()
	}
	s.lamBound = top
	return nil
}

// jacobiAbove answers as matrix.EigAbove does, from the full JacobiEigSym
// decomposition: the fallback for a Gram QL cannot decompose, so it may
// allocate.
func jacobiAbove(g *matrix.Sym, thresh float64) ([]float64, *matrix.Dense, float64, error) {
	vals, V, err := matrix.JacobiEigSym(g)
	if err != nil {
		return nil, nil, 0, err
	}
	k, n := 0, g.Dim()
	for k < n && vals[k] >= thresh {
		k++
	}
	below := math.Inf(-1)
	if k < n {
		below = vals[k]
	}
	vecs := matrix.NewDense(k, n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			vecs.Set(j, i, V.At(i, j))
		}
	}
	return vals[:k], vecs, below, nil
}

// P2Coordinator is the coordinator half of matrix P2 (Algorithm 5.4): it
// adds arriving σ·v rows into BᵀB, refreshes F̂ after every m scalar
// reports, and tallies every message and broadcast. It holds O(d²), the
// paper's coordinator space, and answers the whole Tracker query surface.
// Single-goroutine; the P2 simulator (and so P2SmallSpace) embeds it and
// calls it directly, and a service tracker fed by remote sites is this half
// alone, driven under the tracker lock.
type P2Coordinator struct {
	m    int
	eps  float64
	acct *stream.Accountant
	gram *matrix.Sym // BᵀB from received σv rows
	fhat float64     // running F̂
	nmsg int         // scalar reports since the last broadcast
}

// NewP2Coordinator builds the coordinator half for m sites at error ε and
// row dimension d, parameters the caller has validated (CheckParams).
func NewP2Coordinator(m int, eps float64, d int) *P2Coordinator {
	return &P2Coordinator{m: m, eps: eps, acct: stream.NewAccountant(m), gram: matrix.NewSym(d), fhat: 1}
}

// Scalar handles and tallies a site's scalar report. Every m reports it
// tallies a broadcast and returns broadcast = true: fhat is then due at
// every site (P2Site.SetEstimate).
func (c *P2Coordinator) Scalar(fj float64) (fhat float64, broadcast bool) {
	c.acct.SendUp(1)
	c.fhat += fj
	c.nmsg++
	if c.nmsg >= c.m {
		c.nmsg = 0
		c.acct.Broadcast(1)
		return c.fhat, true
	}
	return c.fhat, false
}

// Row handles and tallies a shipped direction σ·v of length d; it does not
// retain row.
func (c *P2Coordinator) Row(row []float64) {
	c.acct.SendUp(1)
	c.gram.AddOuter(1, row)
}

// Name implements Tracker.
func (c *P2Coordinator) Name() string { return "P2" }

// ProcessRows completes Tracker and panics: the half takes messages, and
// the facade and the service refuse rows before they reach it.
func (c *P2Coordinator) ProcessRows(int, [][]float64) {
	panic("core: a P2Coordinator takes site messages, not rows") //distlint:panic-ok rows are refused before they reach the half
}

// Dim implements Tracker.
func (c *P2Coordinator) Dim() int { return c.gram.Dim() }

// Eps implements Tracker.
func (c *P2Coordinator) Eps() float64 { return c.eps }

// Sites implements SiteCounter.
func (c *P2Coordinator) Sites() int { return c.m }

// Gram implements Tracker.
func (c *P2Coordinator) Gram() *matrix.Sym { return c.gram.Clone() }

// AccumulateGram implements GramAccumulator: BᵀB folds into dst without
// allocating.
func (c *P2Coordinator) AccumulateGram(dst *matrix.Sym, w float64) { dst.AddScaledSym(w, c.gram) }

// EstimateFrobenius implements Tracker: the running F̂.
func (c *P2Coordinator) EstimateFrobenius() float64 { return c.fhat }

// Stats implements Tracker.
func (c *P2Coordinator) Stats() stream.Stats { return c.acct.Stats() }
