package hh

import (
	"repro/internal/sketch"
	"repro/internal/stream"
)

// P1 is the batched-summary protocol of Section 4.1 (Algorithms 4.1/4.2).
// Every site runs a weighted Misra–Gries summary with 2/ε counters plus a
// local weight counter W_i; when W_i reaches τ = (ε/2m)·Ŵ the site ships its
// whole summary to the coordinator and resets. The coordinator merges the
// summaries (mergeability keeps the error additive) and broadcasts a new Ŵ
// whenever its tally grows by a (1+ε/2) factor.
//
// Guarantee: |f_e(A) − Ŵ_e| ≤ εW for every element (Lemma 2).
// Communication: O((m/ε²)·log(βN)) scalar messages.
type P1 struct {
	m    int
	eps  float64
	acct *stream.Accountant

	sites []p1site
	// Coordinator state.
	merged *sketch.MG
	tally  float64 // W_C: total weight represented at the coordinator
	what   float64 // Ŵ: last broadcast estimate
}

type p1site struct {
	summary *sketch.MG
	weight  float64 // W_i since last ship
}

// NewP1 builds the protocol for m sites with error parameter ε.
func NewP1(m int, eps float64) *P1 {
	validateParams(m, eps)
	k := int(2/eps) + 1
	p := &P1{
		m:      m,
		eps:    eps,
		acct:   stream.NewAccountant(m),
		sites:  make([]p1site, m),
		merged: sketch.NewMG(k),
		what:   1, // weights ≥ 1: a valid initial lower bound
	}
	for i := range p.sites {
		p.sites[i].summary = sketch.NewMG(k)
	}
	return p
}

// Name implements Protocol.
func (p *P1) Name() string { return "P1" }

// Eps implements Protocol.
func (p *P1) Eps() float64 { return p.eps }

// Process implements Protocol (Algorithm 4.1, the site side).
func (p *P1) Process(site int, elem uint64, w float64) {
	validateSite(site, p.m)
	validateWeight(w)
	s := &p.sites[site]
	s.summary.Update(elem, w)
	s.weight += w
	tau := (p.eps / (2 * float64(p.m))) * p.what
	if s.weight >= tau {
		p.ship(site)
	}
}

// ship sends site's summary and weight to the coordinator (Algorithm 4.2,
// the coordinator side) and resets the site.
func (p *P1) ship(site int) {
	s := &p.sites[site]
	// The summary is Size() counters, with the weight scalar piggybacked on
	// the first one (a ship always carries ≥ 1 counter, since reaching the
	// weight threshold requires an arrival); the paper counts each counter
	// as an element-sized message.
	n := s.summary.Size()
	if n < 1 {
		n = 1
	}
	p.acct.SendUpN(n, 1)

	p.merged.Merge(s.summary)
	p.tally += s.weight

	s.summary.Reset()
	s.weight = 0

	if p.tally/p.what > 1+float64(p.eps/2) {
		p.what = p.tally
		p.acct.Broadcast(1)
	}
}

// Estimate implements Protocol.
func (p *P1) Estimate(elem uint64) float64 { return p.merged.Estimate(elem) }

// EstimateTotal implements Protocol. The coordinator's tally (not the lagged
// broadcast value) is its best estimate of W.
func (p *P1) EstimateTotal() float64 { return p.tally }

// Candidates implements Protocol.
func (p *P1) Candidates(floor float64) []sketch.WeightedElement {
	return p.merged.HeavyHitters(floor)
}

// Stats implements Protocol.
func (p *P1) Stats() stream.Stats { return p.acct.Stats() }
