package sample

import (
	"fmt"
	"math/rand"
)

// WRSampler maintains the coordinator-side state of the with-replacement
// variant of protocol P3 (Section 4.3.1): s independent priority samplers.
// Sampler t keeps the top two priorities ρ⁽¹⁾_t > ρ⁽²⁾_t it has seen along
// with the element attached to ρ⁽¹⁾_t. The Duffield–Lund–Thorup identity
// E[ρ⁽²⁾_t] = W turns each sampler into an independent weighted sample with
// replacement plus an unbiased total-weight estimate.
//
// A round ends when every sampler's second priority exceeds 2τ_j; the
// coordinator then doubles the threshold.
type WRSampler struct {
	s     int
	tau   float64
	top1  []float64
	top2  []float64
	elems []Prioritized
}

// NewWRSampler returns a coordinator with s independent samplers and initial
// threshold 1.
func NewWRSampler(s int) *WRSampler {
	if s < 1 {
		panic(fmt.Sprintf("sample: need s ≥ 1, got %d", s))
	}
	return &WRSampler{
		s:     s,
		tau:   1,
		top1:  make([]float64, s),
		top2:  make([]float64, s),
		elems: make([]Prioritized, s),
	}
}

// Threshold returns the current round threshold τ_j.
func (w *WRSampler) Threshold() float64 { return w.tau }

// Samplers returns s.
func (w *WRSampler) Samplers() int { return w.s }

// SitePriorities draws the per-sampler priorities for a weight-w element at
// a site and returns the indices of samplers whose priority passes the
// current threshold, with the priorities drawn. Sites forward only those
// (index, priority) pairs, so the expected message size shrinks as τ grows.
func SitePriorities(weight, tau float64, s int, rng *rand.Rand) (idx []int, pri []float64) {
	for t := 0; t < s; t++ {
		rho := Priority(weight, rng)
		if rho >= tau {
			idx = append(idx, t)
			pri = append(pri, rho)
		}
	}
	return idx, pri
}

// Offer ingests one forwarded (sampler index, prioritized element) pair.
// It returns newRound=true when the round completes (every sampler's second
// priority exceeds 2τ), in which case the caller must broadcast the doubled
// Threshold().
func (w *WRSampler) Offer(t int, e Prioritized) (newRound bool) {
	if t < 0 || t >= w.s {
		panic(fmt.Sprintf("sample: sampler index %d out of range %d", t, w.s))
	}
	switch {
	case e.Priority > w.top1[t]:
		w.top2[t] = w.top1[t]
		w.top1[t] = e.Priority
		w.elems[t] = e
	case e.Priority > w.top2[t]:
		w.top2[t] = e.Priority
	}
	if w.roundDone() {
		w.tau *= 2
		return true
	}
	return false
}

func (w *WRSampler) roundDone() bool {
	for t := 0; t < w.s; t++ {
		if w.top2[t] < 2*w.tau {
			return false
		}
	}
	return true
}

// EstimateTotal returns Ŵ = (1/s)·Σ_t ρ⁽²⁾_t, the unbiased estimate of the
// total stream weight.
func (w *WRSampler) EstimateTotal() float64 {
	var sum float64
	for t := 0; t < w.s; t++ {
		sum += w.top2[t]
	}
	return sum / float64(w.s)
}

// Sample returns the s sampled elements, each carrying the uniform adjusted
// weight Ŵ/s as per Section 4.3.1 (samplers that have seen nothing are
// skipped, which only happens on near-empty streams).
func (w *WRSampler) Sample() []Prioritized {
	what := w.EstimateTotal() / float64(w.s)
	out := make([]Prioritized, 0, w.s)
	for t := 0; t < w.s; t++ {
		if w.top1[t] == 0 {
			continue
		}
		e := w.elems[t]
		out = append(out, Prioritized{Key: e.Key, Weight: what, Priority: e.Priority, Payload: e.Payload})
	}
	return out
}
