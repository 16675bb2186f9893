package hh

import (
	"fmt"
	"sort"

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
	// Optional bounded-space summary standing in for the exact delta map
	// (the paper's SpaceSaving reduction); nil means exact. `sent` records
	// what has already been reported per element so the overcounting
	// summary yields unsent deltas.
	ss   *sketch.SpaceSaving
	sent map[uint64]float64
}

// NewP2Site builds site id of m at error ε (exact delta map) over up.
func NewP2Site(id, m int, eps float64, up P2Uplink) (*P2Site, error) {
	if err := CheckParams(m, eps); err != nil {
		return nil, err
	}
	if id < 0 || id >= m {
		return nil, fmt.Errorf("hh: site id %d out of range [0,%d)", id, m)
	}
	s := makeP2Site(id, m, eps, 0, up)
	return &s, nil
}

// makeP2Site is NewP2Site unvalidated and by value; ssk > 0 selects a
// SpaceSaving summary of ssk counters in place of the delta map.
func makeP2Site(id, m int, eps float64, ssk int, up P2Uplink) P2Site {
	s := P2Site{id: id, m: m, eps: eps, up: up, what: 1} // weights ≥ 1: a valid initial lower bound
	if ssk > 0 {
		s.ss = sketch.NewSpaceSaving(ssk)
		s.sent = make(map[uint64]float64)
	} else {
		s.delta = make(map[uint64]float64)
	}
	return s
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

	var de float64
	if s.ss != nil {
		s.ss.Update(elem, w)
		de = s.ss.Estimate(elem) - s.sent[elem]
	} else {
		s.delta[elem] += w
		de = s.delta[elem]
	}
	if de >= thresh {
		s.up.Element(s.id, elem, de)
		if s.ss != nil {
			s.sent[elem] += de
		} else {
			delete(s.delta, elem)
		}
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

// Candidates returns every tracked element, sorted by label.
func (c *P2Coordinator) Candidates() []sketch.WeightedElement {
	out := make([]sketch.WeightedElement, 0, len(c.estimate))
	for e, w := range c.estimate {
		out = append(out, sketch.WeightedElement{Elem: e, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Elem < out[j].Elem })
	return out
}

// NewP2 builds the protocol for m sites with error parameter ε, using exact
// per-site delta maps (space O(distinct elements per site)).
func NewP2(m int, eps float64) *P2 { return newP2(m, eps, 0) }

// NewP2SpaceSaving builds P2 with each site's delta map replaced by a
// weighted SpaceSaving summary of k counters (k ≤ 0 selects the paper's
// O(m/ε) sizing), the suggested site-space reduction.
func NewP2SpaceSaving(m int, eps float64, k int) *P2 {
	if k < 1 {
		k = int(float64(m)/eps) + 1
	}
	return newP2(m, eps, k)
}

func newP2(m int, eps float64, ssk int) *P2 {
	validateParams(m, eps)
	p := &P2{
		m: m, eps: eps, acct: stream.NewAccountant(m),
		sites: make([]P2Site, m), coord: NewP2Coordinator(m),
	}
	for i := range p.sites {
		p.sites[i] = makeP2Site(i, m, eps, ssk, (*p2Direct)(p))
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
func (p *P2) Candidates() []sketch.WeightedElement { return p.coord.Candidates() }

// Stats implements Protocol.
func (p *P2) Stats() stream.Stats { return p.acct.Stats() }
