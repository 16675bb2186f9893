package hh

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// P4 is the randomized protocol of Section 4.4 (Algorithm 4.7), the
// weighted extension of Huang–Yi–Zhang. Each site tracks its exact local
// frequency f_e(A_j); on every arrival (e, w) it sends the current f_e(A_j)
// with probability p̄ = 1 − e^{−p·w}, where p = 2√m/(εŴ). The coordinator
// keeps the latest report w̄_{e,j} per (element, site) and estimates
//
//	Ŵ_e = Σ_j (w̄_{e,j} + 1/p)
//
// over sites that have reported e; the +1/p corrects the expected weight
// that arrived since the last report. A stream.WeightTracker maintains the
// 2-approx Ŵ that p depends on.
//
// Guarantee: |f_e(A) − Ŵ_e| ≤ εW with probability ≥ 0.75 (Theorem 3).
// Communication: O((√m/ε)·log(βN)) messages.
type P4 struct {
	m    int
	eps  float64
	acct *stream.Accountant
	rng  *rand.Rand

	weight *stream.WeightTracker
	sites  []p4site
	// Coordinator state: last report per element per site.
	reports map[uint64][]float64 // elem → length-m vector of w̄_{e,j}; NaN = no report
}

type p4site struct {
	freq map[uint64]float64 // exact local f_e(A_j)
}

// NewP4 builds the protocol for m sites with error ε and site randomness
// from seed.
func NewP4(m int, eps float64, seed int64) *P4 {
	validateParams(m, eps)
	acct := stream.NewAccountant(m)
	p := &P4{
		m:       m,
		eps:     eps,
		acct:    acct,
		rng:     rand.New(rand.NewSource(seed)),
		weight:  stream.NewWeightTracker(m, 0.5, acct),
		sites:   make([]p4site, m),
		reports: make(map[uint64][]float64),
	}
	for i := range p.sites {
		p.sites[i].freq = make(map[uint64]float64)
	}
	return p
}

// Name implements Protocol.
func (p *P4) Name() string { return "P4" }

// Eps implements Protocol.
func (p *P4) Eps() float64 { return p.eps }

// sendProb returns p = 2√m/(εŴ).
func (p *P4) sendProb() float64 {
	return 2 * math.Sqrt(float64(p.m)) / (p.eps * p.weight.Estimate())
}

// Process implements Protocol (Algorithm 4.7).
func (p *P4) Process(site int, elem uint64, w float64) {
	validateSite(site, p.m)
	validateWeight(w)
	p.weight.Observe(site, w)
	s := &p.sites[site]
	s.freq[elem] += w

	prob := p.sendProb()
	pbar := 1 - math.Exp(-prob*w)
	if p.rng.Float64() >= pbar {
		return
	}
	// Send (e, w̄_{e,j} = f_e(A_j)): one element-sized message.
	p.acct.SendUp(1)
	rep, ok := p.reports[elem]
	if !ok {
		rep = make([]float64, p.m)
		for i := range rep {
			rep[i] = math.NaN()
		}
		p.reports[elem] = rep
	}
	rep[site] = s.freq[elem]
}

// Estimate implements Protocol.
func (p *P4) Estimate(elem uint64) float64 {
	rep, ok := p.reports[elem]
	if !ok {
		return 0
	}
	inv := 1 / p.sendProb()
	var sum float64
	for _, r := range rep {
		if !math.IsNaN(r) {
			sum += r + inv
		}
	}
	return sum
}

// EstimateTotal implements Protocol: the weight tracker's coordinator tally
// (within θ·Ŵ of the true W).
func (p *P4) EstimateTotal() float64 { return p.weight.CoordinatorTally() }

// Candidates implements Protocol.
func (p *P4) Candidates(floor float64) []sketch.WeightedElement {
	var out []sketch.WeightedElement
	for e := range p.reports {
		if w := p.Estimate(e); w >= floor {
			out = append(out, sketch.WeightedElement{Elem: e, Weight: w})
		}
	}
	slices.SortFunc(out, byElem)
	return out
}

// Stats implements Protocol.
func (p *P4) Stats() stream.Stats { return p.acct.Stats() }
