package distmat

import (
	"repro/internal/gen"
	"repro/internal/hh"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

// ---- distributed weighted heavy hitters ----

// HHProtocol is a distributed weighted heavy-hitters tracker. Build one
// with NewHH / NewHHByName.
type HHProtocol = hh.Protocol

// WeightedElement pairs an element with a weight (an estimate or an exact
// frequency depending on context).
type WeightedElement = sketch.WeightedElement

// WeightedItem is one element of a weighted input stream.
type WeightedItem = gen.WeightedItem

// RunHH feeds items through a protocol with the given assigner. It is a
// thin wrapper over a Session; prefer sessions for new code.
func RunHH(p HHProtocol, items []WeightedItem, asg Assigner) {
	s, err := WrapHHSession(p, WithAssigner(asg))
	if err != nil {
		//distlint:panic-ok pre-session convenience contract: misuse is a programmer error
		panic(err)
	}
	if err := s.ProcessItems(items); err != nil {
		//distlint:panic-ok pre-session convenience contract: misuse is a programmer error
		panic(err)
	}
}

// HeavyHitters extracts the φ-heavy hitters from a protocol using the
// paper's query rule (return e iff Ŵ_e/Ŵ ≥ φ − ε/2).
func HeavyHitters(p HHProtocol, phi float64) []WeightedElement { return hh.HeavyHitters(p, phi) }

// EvaluateHH scores a returned heavy-hitter set against ground truth.
func EvaluateHH(returned, truth []WeightedElement, estimate func(uint64) float64) metrics.HHResult {
	return metrics.EvaluateHH(returned, truth, estimate)
}

// ---- standalone frequency summaries ----

// MisraGries is the weighted Misra–Gries frequency summary.
type MisraGries = sketch.MG

// NewMisraGries returns a k-counter weighted Misra–Gries summary.
func NewMisraGries(k int) *MisraGries { return sketch.NewMG(k) }

// SpaceSaving is the weighted SpaceSaving frequency summary.
type SpaceSaving = sketch.SpaceSaving

// NewSpaceSaving returns a k-counter weighted SpaceSaving summary.
func NewSpaceSaving(k int) *SpaceSaving { return sketch.NewSpaceSaving(k) }

// NewHHExact builds the exact ground-truth tracker (Ω(N) communication).
func NewHHExact(m int) *hh.Exact { return hh.NewExact(m) }
