package hh

import (
	"math"
	"slices"
	"sort"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// P4Median amplifies P4's constant success probability to 1−δ by running
// log(2/δ) independent copies and taking the per-element median estimate,
// exactly as Theorem 3's remark prescribes. Communication multiplies by the
// copy count; the failure probability drops exponentially in it.
type P4Median struct {
	m      int
	eps    float64
	copies []*P4
}

// NewP4Median builds the amplified protocol with the given number of
// independent copies (≥ 1, odd counts give a true median).
func NewP4Median(m int, eps float64, copies int, seed int64) *P4Median {
	validateParams(m, eps)
	if err := CheckCopies(copies); err != nil {
		panic(err.Error())
	}
	p := &P4Median{m: m, eps: eps}
	for i := 0; i < copies; i++ {
		p.copies = append(p.copies, NewP4(m, eps, seed+int64(i)*7919))
	}
	return p
}

// Name implements Protocol.
func (p *P4Median) Name() string { return "P4med" }

// Eps implements Protocol.
func (p *P4Median) Eps() float64 { return p.eps }

// Process implements Protocol: every copy sees every element.
func (p *P4Median) Process(site int, elem uint64, w float64) {
	for _, c := range p.copies {
		c.Process(site, elem, w)
	}
}

// Estimate implements Protocol: the median of the copies' estimates.
func (p *P4Median) Estimate(elem uint64) float64 {
	ests := make([]float64, len(p.copies))
	for i, c := range p.copies {
		ests[i] = c.Estimate(elem)
	}
	sort.Float64s(ests)
	n := len(ests)
	if n%2 == 1 {
		return ests[n/2]
	}
	return (ests[n/2-1] + ests[n/2]) / 2
}

// EstimateTotal implements Protocol (the copies share the same weight
// observations, so any copy's tracker serves).
func (p *P4Median) EstimateTotal() float64 { return p.copies[0].EstimateTotal() }

// Candidates implements Protocol: the union of the copies' candidates
// whose median estimate is at least floor.
func (p *P4Median) Candidates(floor float64) []sketch.WeightedElement {
	seen := make(map[uint64]bool)
	var out []sketch.WeightedElement
	for _, c := range p.copies {
		for _, cand := range c.Candidates(math.Inf(-1)) {
			if seen[cand.Elem] {
				continue
			}
			seen[cand.Elem] = true
			if w := p.Estimate(cand.Elem); w >= floor {
				out = append(out, sketch.WeightedElement{Elem: cand.Elem, Weight: w})
			}
		}
	}
	slices.SortFunc(out, byElem)
	return out
}

// Stats implements Protocol: summed over copies (each copy really
// communicates).
func (p *P4Median) Stats() stream.Stats {
	var s stream.Stats
	for _, c := range p.copies {
		s.Add(c.Stats())
	}
	return s
}

var _ Protocol = (*P4Median)(nil)
