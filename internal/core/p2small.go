package core

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/sketch"
)

// P2SmallSpace is the bounded-site-space variant of P2 that Section 5.2
// ("Bounding space at sites") describes: instead of the exact unsent matrix
// B_j, each site keeps two Frequent Directions sketches with error ε/4m —
// Ã_j over everything it has received and S̃_j over everything it has sent —
// and tests directions of the implicit B̃_j via ‖B̃_j x‖² = ‖Ã_j x‖² − ‖S̃_j x‖².
// A direction ships when ‖B̃_j v‖² ≥ (3ε/4m)·F̂, which by the paper's
// argument sends at most twice as often as the exact protocol and never
// violates the (ε/m)·F̂ requirement, preserving Theorem 4's guarantee at
// O(m/ε) rows of site space (versus the main implementation's O(d²) Gram,
// which wins for moderate d but loses when d ≫ m/ε).
type P2SmallSpace struct {
	*P2Coordinator // m, ε, the tally, BᵀB and the query surface
	mode           IngestMode

	// Reusable scratch (lazily sized; see processBlock and decomposeAndSend).
	diff    *matrix.Sym
	eigWS   *matrix.EigWorkspace
	shipRow []float64
	wbuf    []float64

	sites    []p2sSite
	siteFhat float64 // F̂ as known to the sites (last broadcast)
}

type p2sSite struct {
	recv     *sketch.FD // Ã_j: all rows received at the site
	sent     *sketch.FD // S̃_j: all rows shipped to the coordinator
	fdelta   float64
	lamBound float64 // upper bound on max direction of B̃_j (same deferral as P2)
}

// NewP2SmallSpace builds the bounded-space variant for m sites, error ε,
// dimension d.
func NewP2SmallSpace(m int, eps float64, d int) *P2SmallSpace {
	validateParams(m, eps, d)
	// FD error ε/4m ⇒ ℓ = ⌈4m/ε⌉ rows per sketch (our FD's 1/(ℓ+1) bound).
	ell := int(math.Ceil(4 * float64(m) / eps))
	p := &P2SmallSpace{P2Coordinator: NewP2Coordinator(m, eps, d), sites: make([]p2sSite, m), siteFhat: 1}
	for i := range p.sites {
		p.sites[i].recv = sketch.NewFD(ell, d)
		p.sites[i].sent = sketch.NewFD(ell, d)
	}
	return p
}

// NewP2SmallSpaceFast builds the bounded-space variant in the blocked fast
// ingest mode (see IngestFast): blocks land in the site sketches whole, and
// the implicit-difference eigendecomposition runs once per crossing block
// over reused scratch.
func NewP2SmallSpaceFast(m int, eps float64, d int) *P2SmallSpace {
	p := NewP2SmallSpace(m, eps, d)
	p.mode = IngestFast
	return p
}

// Name implements Tracker.
func (p *P2SmallSpace) Name() string { return "P2small" }

// ProcessRows implements Tracker. In exact mode each row is a one-row
// processBlock — the per-row step bit for bit (NormSqRows is NormSq,
// AppendRows is Append), every threshold checked at its exact row index.
// Fast mode folds the whole block through one processBlock.
func (p *P2SmallSpace) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.Dim())
	s := &p.sites[site]
	if p.mode == IngestFast {
		p.processBlock(s, rows)
		return
	}
	for i := range rows {
		p.processBlock(s, rows[i:i+1])
	}
}

// processBlock is the site step over a block, mirroring P2Site.ProcessBlock:
// the scalar F̂ side-channel fires at exact row indices, the whole block
// lands in the receive sketch as one AppendRows, and the λ₁ + newMass
// deferral is settled once at the block boundary.
func (p *P2SmallSpace) processBlock(s *p2sSite, rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	p.wbuf = matrix.NormSqRows(rows, p.wbuf)
	var mass float64
	for _, w := range p.wbuf {
		mass += w
		s.fdelta += w
		if s.fdelta >= (p.eps/float64(p.m))*p.siteFhat {
			p.sendScalar(s.fdelta)
			s.fdelta = 0
		}
	}
	s.recv.AppendRows(rows)
	s.lamBound += mass
	if s.lamBound >= (p.eps/float64(p.m))*p.siteFhat {
		p.decomposeAndSend(s)
	}
}

// decomposeAndSend eigendecomposes the implicit B̃_j = Ã_j − S̃_j (in the
// Gram domain) and ships every direction at or above (3ε/8m)·F̂ — half the
// paper's threshold, mirroring P2's ship-early rule. Exact mode assembles
// the difference with freshly materialized Grams (whole-matrix subtraction,
// the rounding order the byte-identity oracle pins); fast mode accumulates
// both sketches into reused scratch with AccumulateGram, which reassociates
// but allocates nothing.
func (p *P2SmallSpace) decomposeAndSend(s *p2sSite) {
	var g *matrix.Sym
	if p.mode == IngestFast {
		if p.diff == nil {
			p.diff = matrix.NewSym(p.Dim())
		}
		g = p.diff
		g.Reset()
		s.recv.AccumulateGram(g, 1)
		s.sent.AccumulateGram(g, -1)
	} else {
		g = s.recv.Gram()
		g.SubSym(s.sent.Gram())
	}
	if p.eigWS == nil {
		p.eigWS = matrix.NewEigWorkspace()
	}
	vals, vecs, err := matrix.EigSymWork(g, p.eigWS)
	if err != nil {
		vals, vecs, err = matrix.JacobiEigSym(g)
		if err != nil {
			panic("core: P2SmallSpace eigendecomposition failed: " + err.Error())
		}
	}
	shipThresh := (3 * p.eps / (8 * float64(p.m))) * p.siteFhat
	if p.shipRow == nil {
		p.shipRow = make([]float64, p.Dim())
	}
	r := p.shipRow
	for k, lam := range vals {
		if lam < shipThresh {
			break
		}
		sigma := math.Sqrt(lam)
		for i := range r {
			r[i] = sigma * vecs.At(i, k)
		}
		p.Row(r)
		s.sent.Append(r) // the shipped row joins S̃_j
		vals[k] = 0
	}
	top := 0.0
	for _, lam := range vals {
		if lam > top {
			top = lam
		}
	}
	if top < 0 {
		top = 0 // sketch-difference roundoff can dip below zero
	}
	s.lamBound = top
}

// sendScalar delivers a scalar report to the shared Algorithm 5.4 half.
func (p *P2SmallSpace) sendScalar(fj float64) {
	if fhat, broadcast := p.Scalar(fj); broadcast {
		p.siteFhat = fhat
	}
}
