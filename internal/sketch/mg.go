// Package sketch implements the mergeable stream summaries the distributed
// protocols are built from: the weighted Misra–Gries frequency sketch and
// Liberty's Frequent Directions matrix sketch (maintained in its exact
// Gram-eigen form).
//
// All summaries are deterministic. Weights are arbitrary nonnegative
// float64 values; the protocols in this repository use weights in [1, β]
// per the paper's model.
package sketch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// MG is a weighted Misra–Gries summary with k counters. For every element e
// it maintains an estimate f̂_e with the classic one-sided guarantee
//
//	0 ≤ f_e − f̂_e ≤ Deducted() ≤ W/(k+1)
//
// where W is the total weight processed. MG summaries are mergeable
// (Agarwal et al., PODS 2012): merging two summaries and re-pruning to k
// counters keeps the summed error bounds.
type MG struct {
	k        int
	counters map[uint64]float64
	weight   float64 // total weight processed (including merged-in summaries)
	deducted float64 // total weight removed by shrink steps; the error bound
}

// NewMG returns a weighted Misra–Gries summary with k ≥ 1 counters.
func NewMG(k int) *MG {
	if k < 1 {
		panic(fmt.Sprintf("sketch: MG needs k ≥ 1, got %d", k))
	}
	return &MG{k: k, counters: make(map[uint64]float64, k+1)}
}

// K returns the counter capacity.
func (m *MG) K() int { return m.k }

// Update processes one stream element with the given weight. Weights must be
// nonnegative; zero-weight updates are ignored.
func (m *MG) Update(e uint64, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("sketch: negative weight %v", w))
	}
	if w == 0 {
		return
	}
	m.weight += w
	m.counters[e] += w
	if len(m.counters) > m.k {
		m.shrink()
	}
}

// shrink subtracts the minimum counter value from every counter and deletes
// the zeroed entries, restoring the size invariant len ≤ k. At least one
// counter (a minimum) is always removed.
func (m *MG) shrink() {
	minV := -1.0
	for _, v := range m.counters {
		if minV < 0 || v < minV {
			minV = v
		}
	}
	if minV <= 0 {
		minV = 0
	}
	for e, v := range m.counters {
		if v-minV <= 0 {
			delete(m.counters, e)
		} else {
			m.counters[e] = v - minV
		}
	}
	m.deducted += minV
}

// Estimate returns f̂_e, an underestimate of the true weight of element e.
func (m *MG) Estimate(e uint64) float64 { return m.counters[e] }

// Size returns the number of live counters.
func (m *MG) Size() int { return len(m.counters) }

// Merge folds other into m without increasing the combined error bound
// beyond the sum of the two inputs' bounds. other is not modified.
func (m *MG) Merge(other *MG) {
	for e, v := range other.counters {
		m.counters[e] += v
	}
	m.weight += other.weight
	m.deducted += other.deducted
	if len(m.counters) > m.k {
		// Prune to k counters by subtracting the (k+1)-th largest value,
		// the mergeable-summaries rule.
		vals := make([]float64, 0, len(m.counters))
		for _, v := range m.counters {
			vals = append(vals, v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		cut := vals[m.k]
		for e, v := range m.counters {
			if v-cut <= 0 {
				delete(m.counters, e)
			} else {
				m.counters[e] = v - cut
			}
		}
		m.deducted += cut
	}
}

// Reset clears the summary to its freshly constructed state.
func (m *MG) Reset() {
	m.counters = make(map[uint64]float64, m.k+1)
	m.weight = 0
	m.deducted = 0
}

// HeavyHitters returns the elements whose estimated weight is at least
// threshold, sorted by descending estimate.
func (m *MG) HeavyHitters(threshold float64) []WeightedElement {
	var out []WeightedElement
	for e, v := range m.counters {
		if v >= threshold {
			out = append(out, WeightedElement{Elem: e, Weight: v})
		}
	}
	SortByWeightDesc(out)
	return out
}

// WeightedElement pairs an element label with a weight.
type WeightedElement struct {
	Elem   uint64
	Weight float64
}

// SortByWeightDesc sorts in place by descending weight, breaking ties by
// ascending element id. Every heavy-hitter listing in the repository uses
// this one total order, so equal-estimate outputs are deterministic — in
// particular, a sharded tracker's merged listing matches the unsharded
// tracker's even when shard merges visit elements in a different map order.
func SortByWeightDesc(s []WeightedElement) {
	slices.SortFunc(s, func(a, b WeightedElement) int {
		if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
			return c
		}
		return cmp.Compare(a.Elem, b.Elem)
	})
}
