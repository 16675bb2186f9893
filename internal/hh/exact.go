package hh

import (
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Exact is the ground-truth tracker: it centralizes every element (as the
// naive protocol would) and answers queries exactly. Its communication cost
// is one message per stream element, the Ω(N) baseline the paper's
// protocols are measured against.
type Exact struct {
	m     int
	freq  map[uint64]float64
	total float64
	acct  *stream.Accountant
}

// NewExact returns an exact tracker over m sites.
func NewExact(m int) *Exact {
	validateParams(m, 0.5) // eps unused; pass a valid placeholder
	return &Exact{m: m, freq: make(map[uint64]float64), acct: stream.NewAccountant(m)}
}

// Name implements Protocol.
func (e *Exact) Name() string { return "Exact" }

// Process implements Protocol: every element is forwarded to the coordinator.
func (e *Exact) Process(site int, elem uint64, w float64) {
	validateSite(site, e.m)
	validateWeight(w)
	e.acct.SendUp(1)
	e.freq[elem] += w
	e.total += w
}

// Estimate implements Protocol (exactly).
func (e *Exact) Estimate(elem uint64) float64 { return e.freq[elem] }

// EstimateTotal implements Protocol (exactly).
func (e *Exact) EstimateTotal() float64 { return e.total }

// Eps implements Protocol; the exact tracker has zero error.
func (e *Exact) Eps() float64 { return 0 }

// Candidates implements Protocol.
func (e *Exact) Candidates(floor float64) []sketch.WeightedElement {
	return candidatesOf(e.freq, floor)
}

// Stats implements Protocol.
func (e *Exact) Stats() stream.Stats { return e.acct.Stats() }

// TrueHeavyHitters returns the exact φ-heavy hitters f_e ≥ φW.
func (e *Exact) TrueHeavyHitters(phi float64) []sketch.WeightedElement {
	var out []sketch.WeightedElement
	for el, w := range e.freq {
		if w >= phi*e.total {
			out = append(out, sketch.WeightedElement{Elem: el, Weight: w})
		}
	}
	sketch.SortByWeightDesc(out)
	return out
}
