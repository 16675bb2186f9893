package core

import (
	"math"
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// P4 is the appendix's attempted matrix analogue of heavy-hitters P4
// (Algorithm C.1), included to reproduce the paper's negative result
// (Figures 6 and 7): unlike P1–P3 it carries NO approximation guarantee,
// and its measured error does not shrink with ε.
//
// Site j keeps its exact local Gram G_j = A_jᵀA_j and an approximation
// Â_j = Z·Vᵀ known to both the site and the coordinator. With probability
// p̄ = 1 − e^{−p‖a‖²} (p = 2√m/(εF̂)) it sends the refreshed magnitudes
// z_i = √(‖A_j v_i‖² + 1/p) along the current right-singular basis V of
// Â_j.
//
// The fatal flaw is the one the paper identifies: the right singular
// vectors of Z·Vᵀ are V itself, so updates never rotate the basis. Since
// Â_j starts empty, V is pinned to its initialization — the standard basis
// — forever, and Â_j degenerates to the coordinate marginals
// z_i² = (G_j)_{ii} + 1/p. Error in directions between coordinates is
// uncontrolled, which is exactly what Figures 6/7 measure. (The pinned
// basis also makes the update O(d): read the Gram diagonal.)
//
// A stream.WeightTracker (θ = 1/2) over the squared row norms maintains the
// 2-approximate F̂, as the heavy-hitters P4's maintains Ŵ.
type P4 struct {
	m, d int
	eps  float64
	acct *stream.Accountant
	rng  *rand.Rand

	fro   *stream.WeightTracker
	sites []p4site
}

type p4site struct {
	// diag is the diagonal of the exact G_j = A_jᵀA_j, all of it the
	// pinned basis reads.
	diag []float64
	// Â_j = Z·Vᵀ with V pinned to the standard basis (see type comment):
	// z holds the per-coordinate magnitudes. The coordinator's copy is
	// identical by construction, so one copy serves both roles.
	z    []float64
	sent bool
}

// NewP4 builds the (failing) protocol for m sites, error ε, dimension d.
func NewP4(m int, eps float64, d int, seed int64) *P4 {
	validateParams(m, eps, d)
	acct := stream.NewAccountant(m)
	p := &P4{
		m:     m,
		d:     d,
		eps:   eps,
		acct:  acct,
		rng:   rand.New(rand.NewSource(seed)),
		fro:   stream.NewWeightTracker(m, 0.5, acct),
		sites: make([]p4site, m),
	}
	for i := range p.sites {
		p.sites[i].diag = make([]float64, d)
		p.sites[i].z = make([]float64, d)
	}
	return p
}

// Name implements Tracker.
func (p *P4) Name() string { return "P4" }

// Dim implements Tracker.
func (p *P4) Dim() int { return p.d }

// Eps implements Tracker.
func (p *P4) Eps() float64 { return p.eps }

// Sites implements SiteCounter.
func (p *P4) Sites() int { return p.m }

// sendProb returns p = 2√m/(εF̂).
func (p *P4) sendProb() float64 {
	return 2 * math.Sqrt(float64(p.m)) / (p.eps * p.fro.Estimate())
}

// ProcessRows implements Tracker (Algorithm C.1): the per-row
// send-probability loop; rng draws stay in row order, so the message
// tallies do not depend on how the stream is cut into batches.
func (p *P4) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.d)
	s := &p.sites[site]
	for _, row := range rows {
		p.processRow(s, site, row)
	}
}

func (p *P4) processRow(s *p4site, site int, row []float64) {
	w := matrix.NormSq(row)
	p.fro.Observe(site, w)
	for i, x := range row {
		s.diag[i] += float64(x * x) // unfused: AddOuter(1, row)'s diagonal bit for bit
	}

	prob := p.sendProb()
	pbar := 1 - math.Exp(-prob*w)
	if p.rng.Float64() >= pbar {
		return
	}
	// Send z = (z_1 … z_d): one row-sized vector message. With V pinned to
	// the standard basis, ‖A_j v_i‖² is the i-th Gram diagonal entry.
	p.acct.SendUp(1)
	inv := 1 / prob
	for i := 0; i < p.d; i++ {
		s.z[i] = math.Sqrt(s.diag[i] + inv)
	}
	s.sent = true
}

// Gram implements Tracker: Σ_j Â_jᵀÂ_j = Σ_j V·Z²·Vᵀ = Σ_j diag(z²).
func (p *P4) Gram() *matrix.Sym {
	g := matrix.NewSym(p.d)
	for j := range p.sites {
		s := &p.sites[j]
		if !s.sent {
			continue
		}
		for i := 0; i < p.d; i++ {
			g.Set(i, i, g.At(i, i)+s.z[i]*s.z[i])
		}
	}
	return g
}

// EstimateFrobenius implements Tracker.
func (p *P4) EstimateFrobenius() float64 { return p.fro.CoordinatorTally() }

// Stats implements Tracker.
func (p *P4) Stats() stream.Stats { return p.acct.Stats() }

var _ Tracker = (*P4)(nil)
