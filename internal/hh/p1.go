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
	rule stream.P1 // W_i per site, W_C, Ŵ and the message tally

	sites  []*sketch.MG
	merged *sketch.MG // the coordinator's summary
}

// NewP1 builds the protocol for m sites with error parameter ε.
func NewP1(m int, eps float64) *P1 {
	validateParams(m, eps)
	k := int(2/eps) + 1
	p := &P1{m: m, eps: eps, rule: stream.NewP1(m, eps), sites: make([]*sketch.MG, m), merged: sketch.NewMG(k)}
	for i := range p.sites {
		p.sites[i] = sketch.NewMG(k)
	}
	return p
}

// Name implements Protocol.
func (p *P1) Name() string { return "P1" }

// Eps implements Protocol.
func (p *P1) Eps() float64 { return p.eps }

// Process implements Protocol: Algorithm 4.1 at the site, and when the site
// ships, Algorithm 4.2 at the coordinator. The summary goes up as Size()
// counters, the weight scalar piggybacked on the first; the paper counts
// each counter as an element-sized message.
func (p *P1) Process(site int, elem uint64, w float64) {
	validateSite(site, p.m)
	validateWeight(w)
	summary := p.sites[site]
	summary.Update(elem, w)
	if p.rule.Add(site, w) {
		p.rule.Ship(site, summary.Size())
		p.merged.Merge(summary)
		summary.Reset()
	}
}

// Estimate implements Protocol.
func (p *P1) Estimate(elem uint64) float64 { return p.merged.Estimate(elem) }

// EstimateTotal implements Protocol. The coordinator's tally (not the lagged
// broadcast value) is its best estimate of W.
func (p *P1) EstimateTotal() float64 { return p.rule.Tally }

// Candidates implements Protocol.
func (p *P1) Candidates(floor float64) []sketch.WeightedElement {
	return p.merged.HeavyHitters(floor)
}

// Stats implements Protocol.
func (p *P1) Stats() stream.Stats { return p.rule.Acct.Stats() }
