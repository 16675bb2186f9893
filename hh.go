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

// HeavyHitters extracts the φ-heavy hitters from a protocol using the
// paper's query rule (return e iff Ŵ_e/Ŵ ≥ φ − ε/2).
func HeavyHitters(p HHProtocol, phi float64) []WeightedElement { return hh.HeavyHitters(p, phi) }

// EvaluateHH scores a returned heavy-hitter set against ground truth.
func EvaluateHH(returned, truth []WeightedElement, estimate func(uint64) float64) metrics.HHResult {
	return metrics.EvaluateHH(returned, truth, estimate)
}

// NewHHExact builds the exact ground-truth tracker (Ω(N) communication).
func NewHHExact(m int) *hh.Exact { return hh.NewExact(m) }
