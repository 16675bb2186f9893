package hh

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sketch"
)

// ErrMergeMismatch is the sentinel for shard summaries whose parameters
// disagree (different MG capacities, q-digest universes, ...). It can only
// arise from a corrupted or hand-assembled snapshot — shards built by one
// builder always agree — so the tracker-level merge surfaces return it
// wrapped rather than panicking, keeping a daemon restoring a bad
// checkpoint alive.
var ErrMergeMismatch = errors.New("hh: shard summary parameters mismatch")

// MergedSummary is the query-time union of shard coordinator states. Shards
// contribute through AccumulateInto (protocols with mergeable coordinator
// summaries) or the Candidates fallback; queries read the combined view.
//
// The merged bound is the mergeable-summaries argument (Agarwal et al.,
// PODS 2012): shard k tracks its substream with error ≤ ε·W_k, the
// summary merge adds errors, and Σ ε·W_k = εW — so the merged view obeys
// the same |f_e − Ŵ_e| ≤ εW contract as an unsharded tracker.
type MergedSummary struct {
	mg       *sketch.MG // mergeable-summary path (P1); nil until first use
	estimate map[uint64]float64
}

// NewMergedSummary returns an empty accumulation target.
func NewMergedSummary() *MergedSummary {
	return &MergedSummary{estimate: make(map[uint64]float64)}
}

// AddEstimate folds one element estimate into the view.
func (a *MergedSummary) AddEstimate(elem uint64, w float64) { a.estimate[elem] += w }

// MergeMG folds one shard's coordinator MG summary into the view's own MG,
// returning ErrMergeMismatch (wrapped) if the capacities disagree.
func (a *MergedSummary) MergeMG(m *sketch.MG) error {
	if a.mg == nil {
		a.mg = sketch.NewMG(m.K())
	} else if a.mg.K() != m.K() {
		return fmt.Errorf("merging MG(k=%d) into MG(k=%d): %w", m.K(), a.mg.K(), ErrMergeMismatch)
	}
	a.mg.Merge(m)
	return nil
}

// Estimate returns the merged Ŵ_e.
func (a *MergedSummary) Estimate(elem uint64) float64 {
	v := a.estimate[elem]
	if a.mg != nil {
		v += a.mg.Estimate(elem)
	}
	return v
}

// Candidates returns every element whose merged estimate is at least
// floor, in the repository's canonical weight-desc/elem-asc order.
func (a *MergedSummary) Candidates(floor float64) []sketch.WeightedElement {
	var mgCands, out []sketch.WeightedElement
	if a.mg != nil {
		mgCands = a.mg.HeavyHitters(0)
	}
	for _, c := range mgCands {
		if w := a.estimate[c.Elem]; w != 0 {
			c.Weight += w
		}
		if c.Weight >= floor {
			out = append(out, c)
		}
	}
	for e, w := range a.estimate {
		if a.mg != nil && a.mg.Estimate(e) != 0 {
			continue // already weighed with the MG candidates
		}
		if w >= floor {
			out = append(out, sketch.WeightedElement{Elem: e, Weight: w})
		}
	}
	sketch.SortByWeightDesc(out)
	return out
}

// Merger is the tracker-level merge surface: protocols whose coordinator
// state folds losslessly into a MergedSummary implement it (P1 merges its
// coordinator MG, P2 and Exact add their estimate maps). Protocols without
// it — the randomized P3/P4 family, whose coordinator state is not a
// mergeable summary — fall back to Candidates, which preserves the εW
// bound all the same: each shard's candidate estimates carry that shard's
// error, and addition over shards sums both weight and error.
type Merger interface {
	AccumulateInto(acc *MergedSummary) error
}

// AccumulateInto implements Merger for P1: the coordinator MG merges via
// the mergeable-summaries rule.
func (p *P1) AccumulateInto(acc *MergedSummary) error {
	if err := acc.MergeMG(p.merged); err != nil {
		return fmt.Errorf("hh: P1 accumulate: %w", err)
	}
	return nil
}

// AccumulateInto implements Merger for P2: the coordinator estimate map adds.
func (p *P2) AccumulateInto(acc *MergedSummary) error {
	for e, w := range p.coord.estimate {
		acc.AddEstimate(e, w)
	}
	return nil
}

// AccumulateInto implements Merger for Exact: frequencies add, keeping the
// merged view exact.
func (e *Exact) AccumulateInto(acc *MergedSummary) error {
	for el, w := range e.freq {
		acc.AddEstimate(el, w)
	}
	return nil
}

// Accumulate folds one shard protocol into acc, via Merger when the
// protocol has one and the Candidates fallback otherwise.
func Accumulate(p Protocol, acc *MergedSummary) error {
	if m, ok := p.(Merger); ok {
		return m.AccumulateInto(acc)
	}
	for _, c := range p.Candidates(math.Inf(-1)) {
		acc.AddEstimate(c.Elem, c.Weight)
	}
	return nil
}

// Sharded runs P independent copies of a protocol, each owning a fixed set
// of the m sites: the embedded core.ShardEngine routes site j's items to
// shard j mod P (Deal, the flush barrier, failure capture, Close,
// tallies), and queries answer from the merged coordinator view. It
// implements Protocol, so everything built on the interface (HeavyHitters,
// the session facade, the service layer) works unchanged; the error
// contract is the merged bound argued on MergedSummary. Shard k runs its
// protocol over ⌈(m−k)/P⌉ sites, so its thresholds are about a single
// tracker's and the summed Stats are about what one tracker sends on the
// same stream.
//
// Like the unsharded protocols, a Sharded tracker is driven by one
// goroutine at a time. Queries flush (merge barrier) first; Close stops
// the shard workers.
type Sharded struct {
	*core.ShardEngine[Protocol, gen.WeightedItem]
}

// NewSharded builds a sharded tracker for m sites over min(p, m) shard
// protocols produced by build, called once per shard index with the
// shard's site count (randomized protocols should derive per-shard seeds
// from the index). All shards must come from the same constructor with the
// same parameters.
func NewSharded(p, m int, build func(shard, sites int) Protocol) *Sharded {
	return &Sharded{core.NewShardedItemTracker(p, m, build)}
}

// Name implements Protocol: the shard protocol's name (the sharding is an
// execution strategy, not a different protocol).
func (s *Sharded) Name() string { return s.Shard(0).Name() }

// Eps implements Protocol: the merged view keeps the shard ε (summed
// per-shard bounds telescope to εW, see MergedSummary).
func (s *Sharded) Eps() float64 { return s.Shard(0).Eps() }

// Process implements Protocol, dealing one item to the shard workers.
func (s *Sharded) Process(site int, elem uint64, w float64) {
	s.Deal(site, []gen.WeightedItem{{Elem: elem, Weight: w}})
}

// merged flushes and folds every shard into a fresh MergedSummary. A
// parameter mismatch is impossible for builder-constructed shards and
// rejected during snapshot restore, so a failure here is a program bug and
// panics with the wrapped error.
func (s *Sharded) merged() *MergedSummary {
	s.Flush()
	acc := NewMergedSummary()
	for i := 0; i < s.ShardCount(); i++ {
		if err := Accumulate(s.Shard(i), acc); err != nil {
			panic(err)
		}
	}
	return acc
}

// Estimate implements Protocol from the merged view.
func (s *Sharded) Estimate(elem uint64) float64 { return s.merged().Estimate(elem) }

// EstimateTotal implements Protocol: the shards' Ŵs summed, no estimate
// merged. Each starts from its protocol's initial lower bound (1 for P2):
// the sum overcounts by up to P−1, within the εW slack as that bound is.
func (s *Sharded) EstimateTotal() float64 {
	s.Flush()
	var total float64
	for i := 0; i < s.ShardCount(); i++ {
		total += s.Shard(i).EstimateTotal()
	}
	return total
}

// Candidates implements Protocol from the merged view, in the canonical
// weight-desc/elem-asc order.
func (s *Sharded) Candidates(floor float64) []sketch.WeightedElement {
	return s.merged().Candidates(floor)
}

var _ Protocol = (*Sharded)(nil)
