package hh

import (
	"math/rand"

	"repro/internal/sample"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// P3 is the sampling protocol of Section 4.3 (Algorithms 4.5/4.6): sites
// draw a priority ρ = w/u for every element and forward those with ρ ≥ τ;
// the coordinator maintains a priority sample without replacement of size
// ≥ s = Θ((1/ε²)·log(1/ε)) and doubles τ when the high bucket fills.
//
// Guarantee: |f_e(A) − Ŵ_e| ≤ εW with large probability (Theorem 2).
// Communication: O((m + s)·log(βN/s)) messages.
type P3 struct {
	m    int
	eps  float64
	acct *stream.Accountant
	rng  *rand.Rand

	coord *sample.PrioritySampler
	// tau mirrors the threshold each site currently knows; in this
	// sequential simulation every site learns a new τ at the same time.
	tau float64
}

// NewP3 builds the protocol for m sites with error ε, drawing site
// randomness from seed. The sample size is the paper's recommendation; use
// NewP3Size to override it.
func NewP3(m int, eps float64, seed int64) *P3 {
	return NewP3Size(m, eps, sample.RecommendedSampleSize(eps), seed)
}

// NewP3Size builds P3 with an explicit coordinator sample size s.
func NewP3Size(m int, eps float64, s int, seed int64) *P3 {
	validateParams(m, eps)
	return &P3{
		m:     m,
		eps:   eps,
		acct:  stream.NewAccountant(m),
		rng:   rand.New(rand.NewSource(seed)),
		coord: sample.NewPrioritySampler(s),
		tau:   1,
	}
}

// Name implements Protocol.
func (p *P3) Name() string { return "P3" }

// Eps implements Protocol.
func (p *P3) Eps() float64 { return p.eps }

// Process implements Protocol (Algorithm 4.5).
func (p *P3) Process(site int, elem uint64, w float64) {
	validateSite(site, p.m)
	validateWeight(w)
	rho := sample.Priority(w, p.rng)
	if rho < p.tau {
		return
	}
	// Forward (a, w, ρ): one element-sized message.
	p.acct.SendUp(1)
	if newRound := p.coord.Offer(sample.Prioritized{Key: elem, Weight: w, Priority: rho}); newRound {
		p.tau = p.coord.Threshold()
		p.acct.Broadcast(1)
	}
}

// Estimate implements Protocol.
func (p *P3) Estimate(elem uint64) float64 { return p.coord.EstimateKey(elem) }

// EstimateTotal implements Protocol.
func (p *P3) EstimateTotal() float64 { return p.coord.EstimateTotal() }

// Candidates implements Protocol.
func (p *P3) Candidates(floor float64) []sketch.WeightedElement {
	var out []sketch.WeightedElement
	for _, kw := range p.coord.EstimateAll() {
		if kw.Weight >= floor {
			out = append(out, sketch.WeightedElement{Elem: kw.Key, Weight: kw.Weight})
		}
	}
	return out
}

// Stats implements Protocol.
func (p *P3) Stats() stream.Stats { return p.acct.Stats() }
