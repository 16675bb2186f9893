// Package sample implements the weighted sampling machinery behind protocol
// P3: priority sampling without replacement (Duffield–Lund–Thorup) and k
// independent with-replacement samplers. All samplers are deterministic
// given a *rand.Rand.
package sample

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Prioritized is a stream element annotated with its priority ρ = w/u,
// u ~ Unif(0,1]. Elements with priority above a threshold form a weighted
// sample without replacement.
type Prioritized struct {
	Key      uint64    // element label (or row index for matrix streams)
	Weight   float64   // original weight
	Priority float64   // ρ = Weight / u
	Payload  []float64 // optional row payload for matrix streams
}

// Priority draws a priority for weight w using rng. Weights must be positive.
func Priority(w float64, rng *rand.Rand) float64 {
	if w <= 0 {
		panic(fmt.Sprintf("sample: non-positive weight %v", w))
	}
	// Unif(0,1]: avoid a zero divisor.
	u := 1 - rng.Float64()
	return w / u
}

// PrioritySampler maintains the coordinator-side state of the paper's P3
// protocol (Algorithm 4.6): two priority buckets Q_j and Q_{j+1} for the
// current round j with threshold τ_j, doubling the threshold whenever
// Q_{j+1} reaches the target sample size s. Sites forward elements whose
// priority exceeds τ_j; the union Q_j ∪ Q_{j+1} is a priority sample without
// replacement of size ≥ s (until the stream is exhausted).
type PrioritySampler struct {
	s      int
	tau    float64
	qj     []Prioritized // τ ≤ ρ < 2τ
	qj1    []Prioritized // ρ ≥ 2τ
	rounds int
}

// NewPrioritySampler returns a coordinator sampler targeting sample size
// s ≥ 1 with initial threshold 1 (so all weight-≥1 elements are forwarded at
// the start, matching the paper).
func NewPrioritySampler(s int) *PrioritySampler {
	if s < 1 {
		panic(fmt.Sprintf("sample: need s ≥ 1, got %d", s))
	}
	return &PrioritySampler{s: s, tau: 1}
}

// Threshold returns the current round threshold τ_j. Sites must forward
// exactly the elements with priority ≥ τ_j.
func (p *PrioritySampler) Threshold() float64 { return p.tau }

// Rounds returns how many times the threshold has doubled.
func (p *PrioritySampler) Rounds() int { return p.rounds }

// TargetSize returns s.
func (p *PrioritySampler) TargetSize() int { return p.s }

// Offer ingests an element forwarded by a site. It returns newRound=true if
// the offer completed the current round, in which case the caller must
// broadcast the new Threshold() to all sites.
func (p *PrioritySampler) Offer(e Prioritized) (newRound bool) {
	if e.Priority < p.tau {
		// Late arrival below the current threshold: legal in an asynchronous
		// network but impossible in our sequential simulator; ignore.
		return false
	}
	if e.Priority >= 2*p.tau {
		p.qj1 = append(p.qj1, e)
	} else {
		p.qj = append(p.qj, e)
	}
	if len(p.qj1) >= p.s {
		p.advance()
		return true
	}
	return false
}

// advance ends the round: τ doubles, Q_j is discarded, and Q_{j+1} is split
// against the doubled threshold.
func (p *PrioritySampler) advance() {
	p.tau *= 2
	p.rounds++
	old := p.qj1
	p.qj = p.qj[:0]
	p.qj1 = nil
	for _, e := range old {
		if e.Priority >= 2*p.tau {
			p.qj1 = append(p.qj1, e)
		} else {
			p.qj = append(p.qj, e)
		}
	}
}

// Size returns |Q_j ∪ Q_{j+1}|.
func (p *PrioritySampler) Size() int { return len(p.qj) + len(p.qj1) }

// Sample extracts the estimation sample per Section 4.3 of the paper: all
// retained elements except the one with the smallest priority ρ̂, each
// assigned the adjusted weight w̄ᵢ = max(wᵢ, ρ̂). The returned threshold is
// ρ̂. An empty or singleton pool yields a nil sample.
func (p *PrioritySampler) Sample() (items []Prioritized, rhoHat float64) {
	pool := make([]Prioritized, 0, p.Size())
	pool = append(pool, p.qj...)
	pool = append(pool, p.qj1...)
	if len(pool) <= 1 {
		return nil, 0
	}
	minIdx := 0
	for i, e := range pool {
		if e.Priority < pool[minIdx].Priority {
			minIdx = i
		}
	}
	rhoHat = pool[minIdx].Priority
	pool[minIdx] = pool[len(pool)-1]
	pool = pool[:len(pool)-1]
	out := make([]Prioritized, len(pool))
	for i, e := range pool {
		w := e.Weight
		if w < rhoHat {
			w = rhoHat
		}
		out[i] = Prioritized{Key: e.Key, Weight: w, Priority: e.Priority, Payload: e.Payload}
	}
	return out, rhoHat
}

// EstimateTotal returns the priority-sampling estimator of the total stream
// weight: Σ w̄ᵢ over the sample. E[estimate] = W.
func (p *PrioritySampler) EstimateTotal() float64 {
	items, _ := p.Sample()
	var w float64
	for _, e := range items {
		w += e.Weight
	}
	return w
}

// EstimateKey returns the estimated total weight of a single key from the
// sample (the f_e(S) estimator of Lemma 6).
func (p *PrioritySampler) EstimateKey(key uint64) float64 {
	items, _ := p.Sample()
	var w float64
	for _, e := range items {
		if e.Key == key {
			w += e.Weight
		}
	}
	return w
}

// EstimateAll returns estimated weights for every key present in the sample,
// sorted by key for determinism.
func (p *PrioritySampler) EstimateAll() []KeyWeight {
	items, _ := p.Sample()
	agg := make(map[uint64]float64)
	for _, e := range items {
		agg[e.Key] += e.Weight
	}
	out := make([]KeyWeight, 0, len(agg))
	for k, w := range agg {
		out = append(out, KeyWeight{Key: k, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// KeyWeight pairs a key with an estimated weight.
type KeyWeight struct {
	Key    uint64
	Weight float64
}

// RecommendedSampleSize returns the paper's s = Θ((1/ε²)·ln(1/ε)) with unit
// constant, clamped below at 16.
func RecommendedSampleSize(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("sample: need 0 < ε < 1, got %v", eps))
	}
	s := int(math.Ceil(1 / (eps * eps) * math.Log(1/eps)))
	if s < 16 {
		s = 16
	}
	return s
}
