package hh

import (
	"repro/internal/sketch"
	"repro/internal/stream"
)

// P2 is the deterministic protocol of Section 4.2 (Algorithms 4.3/4.4),
// the weighted extension of Yi–Zhang. Sites never ship whole summaries:
// site i reports a scalar when its unsent weight W_i reaches (ε/m)·Ŵ, and
// reports a single element e when that element's unsent weight Δ_e reaches
// (ε/m)·Ŵ. The coordinator broadcasts a refreshed Ŵ after every m scalar
// reports. Sites threshold against the Ŵ they last received, not the
// coordinator's live tally, exactly as in the paper.
//
// Guarantee: |f_e(A) − Ŵ_e| ≤ εW (Theorem 1).
// Communication: O((m/ε)·log(βN)) messages — a 1/ε factor better than P1.
//
// This simulator is m site halves (P2Site) and one coordinator half
// (P2Coordinator) joined by a direct call — every message tallied and
// delivered at once, a broadcast at every site before the next item: the
// bit-exact specification the golden checkpoints pin.
type P2 struct {
	m    int
	eps  float64
	acct *stream.Accountant

	sites []P2Site
	coord *P2Coordinator
}

// P2Uplink is the site→coordinator link of heavy-hitters P2: the two
// message kinds of Algorithm 4.3, one call per message.
type P2Uplink interface {
	// Scalar reports the site's unsent total weight W_i.
	Scalar(site int, wi float64)
	// Element reports element elem's unsent weight Δ_e.
	Element(site int, elem uint64, de float64)
}

// p2Direct is the simulator's uplink: tally, deliver to the coordinator half
// and, on a broadcast, set every site's Ŵ before returning.
type p2Direct P2

func (p *p2Direct) Scalar(_ int, wi float64) {
	p.acct.SendUp(1)
	if what, broadcast := p.coord.Scalar(wi); broadcast {
		for i := range p.sites {
			p.sites[i].SetEstimate(what)
		}
		p.acct.Broadcast(1)
	}
}

func (p *p2Direct) Element(_ int, elem uint64, de float64) {
	p.acct.SendUp(1)
	p.coord.Element(elem, de)
}

// P2Site is the site half of heavy-hitters P2 (Algorithm 4.3): the one
// definition of the site step, single-goroutine.
type P2Site struct {
	id, m int
	eps   float64
	up    P2Uplink

	what   float64 // Ŵ as last received (SetEstimate)
	weight float64 // W_i: unsent weight
	delta  map[uint64]float64
}

// makeP2Site builds site id of m at error ε over up, by value; the P2
// simulator validates the parameters.
func makeP2Site(id, m int, eps float64, up P2Uplink) P2Site {
	// Weights are ≥ 1, so Ŵ = 1 is a valid initial lower bound.
	return P2Site{id: id, m: m, eps: eps, up: up, what: 1, delta: make(map[uint64]float64)}
}

// Estimate returns Ŵ as the site last received it.
func (s *P2Site) Estimate() float64 { return s.what }

// SetEstimate delivers a coordinator broadcast. Any lower bound on W is
// sound (§4.2); a runtime that can see broadcasts reordered keeps the max.
func (s *P2Site) SetEstimate(what float64) { s.what = what }

// Process is Algorithm 4.3's step for one arrival of positive weight w.
func (s *P2Site) Process(elem uint64, w float64) {
	s.weight += w
	if s.weight >= (s.eps/float64(s.m))*s.what {
		s.up.Scalar(s.id, s.weight)
		s.weight = 0
	}
	// Read Ŵ again: the scalar report may have brought a broadcast back.
	thresh := (s.eps / float64(s.m)) * s.what

	s.delta[elem] += w
	if de := s.delta[elem]; de >= thresh {
		s.up.Element(s.id, elem, de)
		delete(s.delta, elem)
	}
}

// P2Coordinator is the coordinator half of heavy-hitters P2 (Algorithm
// 4.4): it adds element reports into Ŵ_e and refreshes Ŵ after every m
// scalar reports. Single-goroutine.
type P2Coordinator struct {
	m        int
	what     float64 // running Ŵ
	nmsg     int     // scalar reports since the last broadcast
	estimate map[uint64]float64
}

// NewP2Coordinator builds the coordinator half for m sites.
func NewP2Coordinator(m int) *P2Coordinator {
	return &P2Coordinator{m: m, what: 1, estimate: make(map[uint64]float64)}
}

// Scalar handles a site's scalar report. Every m reports it returns
// broadcast = true: what is then due at every site (P2Site.SetEstimate).
func (c *P2Coordinator) Scalar(wi float64) (what float64, broadcast bool) {
	c.what += wi
	c.nmsg++
	if c.nmsg >= c.m {
		c.nmsg = 0
		return c.what, true
	}
	return c.what, false
}

// Element handles an element report.
func (c *P2Coordinator) Element(elem uint64, de float64) { c.estimate[elem] += de }

// Estimate returns Ŵ_e.
func (c *P2Coordinator) Estimate(elem uint64) float64 { return c.estimate[elem] }

// EstimateTotal returns the running Ŵ.
func (c *P2Coordinator) EstimateTotal() float64 { return c.what }

// Candidates returns every tracked element whose estimate is at least
// floor, sorted by label.
func (c *P2Coordinator) Candidates(floor float64) []sketch.WeightedElement {
	return candidatesOf(c.estimate, floor)
}

// NewP2 builds the protocol for m sites with error parameter ε, using exact
// per-site delta maps (space O(distinct elements per site)).
func NewP2(m int, eps float64) *P2 {
	validateParams(m, eps)
	p := &P2{
		m: m, eps: eps, acct: stream.NewAccountant(m),
		sites: make([]P2Site, m), coord: NewP2Coordinator(m),
	}
	for i := range p.sites {
		p.sites[i] = makeP2Site(i, m, eps, (*p2Direct)(p))
	}
	return p
}

// Name implements Protocol.
func (p *P2) Name() string { return "P2" }

// Eps implements Protocol.
func (p *P2) Eps() float64 { return p.eps }

// Process implements Protocol (Algorithm 4.3).
func (p *P2) Process(site int, elem uint64, w float64) {
	validateSite(site, p.m)
	validateWeight(w)
	p.sites[site].Process(elem, w)
}

// Estimate implements Protocol.
func (p *P2) Estimate(elem uint64) float64 { return p.coord.Estimate(elem) }

// EstimateTotal implements Protocol: the coordinator's running tally.
func (p *P2) EstimateTotal() float64 { return p.coord.EstimateTotal() }

// Candidates implements Protocol.
func (p *P2) Candidates(floor float64) []sketch.WeightedElement { return p.coord.Candidates(floor) }

// Stats implements Protocol.
func (p *P2) Stats() stream.Stats { return p.acct.Stats() }
