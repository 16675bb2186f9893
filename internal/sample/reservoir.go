package sample

import (
	"fmt"
	"math/rand"
)

// Reservoir is a single-stream weighted reservoir sampler without
// replacement (Efraimidis–Spirakis via the priority/exponential-jump
// formulation): it retains the k items with the largest priorities ρ = w/u.
// It is the centralized counterpart of the distributed PrioritySampler and
// is used as a baseline and in tests.
type Reservoir struct {
	k     int
	items []Prioritized // min-heap on Priority
	seen  int
	total float64
}

// NewReservoir returns a sampler retaining k ≥ 1 items.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes reservoir.go with its tests
func NewReservoir(k int) *Reservoir {
	if k < 1 {
		panic(fmt.Sprintf("sample: need k ≥ 1, got %d", k))
	}
	return &Reservoir{k: k}
}

// Offer processes one weighted element.
func (r *Reservoir) Offer(key uint64, weight float64, payload []float64, rng *rand.Rand) {
	r.seen++
	r.total += weight
	e := Prioritized{Key: key, Weight: weight, Priority: Priority(weight, rng), Payload: payload}
	if len(r.items) < r.k {
		r.items = append(r.items, e)
		r.up(len(r.items) - 1)
		return
	}
	if e.Priority <= r.items[0].Priority {
		return
	}
	r.items[0] = e
	r.down(0)
}

// Threshold returns the smallest retained priority (τ for the sample), or 0
// if fewer than k items have been seen.
func (r *Reservoir) Threshold() float64 {
	if len(r.items) < r.k {
		return 0
	}
	return r.items[0].Priority
}

// Sample returns the retained items with adjusted weights w̄ = max(w, τ̂)
// where τ̂ is the k-th (smallest retained) priority; if the reservoir is not
// yet full, raw weights are returned (the sample is the whole stream).
func (r *Reservoir) Sample() []Prioritized {
	out := make([]Prioritized, len(r.items))
	copy(out, r.items)
	if len(r.items) < r.k {
		return out
	}
	// Exclude the minimum-priority item from estimation adjustment use:
	// the standard estimator drops it and uses its priority as τ̂.
	tau := r.items[0].Priority
	adj := out[:0]
	for i, e := range out {
		if i == 0 {
			continue // heap root = min priority item, dropped
		}
		w := e.Weight
		if w < tau {
			w = tau
		}
		adj = append(adj, Prioritized{Key: e.Key, Weight: w, Priority: e.Priority, Payload: e.Payload})
	}
	return adj
}

// EstimateTotal returns the priority-sampling estimate of total weight.
func (r *Reservoir) EstimateTotal() float64 {
	if len(r.items) < r.k {
		return r.total
	}
	var w float64
	for _, e := range r.Sample() {
		w += e.Weight
	}
	return w
}

// Seen returns the number of offered elements.
func (r *Reservoir) Seen() int { return r.seen }

// Total returns the exact total weight offered (for tests).
func (r *Reservoir) Total() float64 { return r.total }

// min-heap maintenance on Priority.
func (r *Reservoir) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.items[p].Priority <= r.items[i].Priority {
			break
		}
		r.items[p], r.items[i] = r.items[i], r.items[p]
		i = p
	}
}

func (r *Reservoir) down(i int) {
	n := len(r.items)
	for {
		l, rt := 2*i+1, 2*i+2
		small := i
		if l < n && r.items[l].Priority < r.items[small].Priority {
			small = l
		}
		if rt < n && r.items[rt].Priority < r.items[small].Priority {
			small = rt
		}
		if small == i {
			return
		}
		r.items[i], r.items[small] = r.items[small], r.items[i]
		i = small
	}
}
