// Package hh implements the paper's four protocols (Section 4) for tracking
// ε-approximate weighted heavy hitters over a distributed stream, plus an
// exact centralized tracker used as ground truth.
//
// All protocols share the same contract: after any prefix of the stream the
// coordinator holds an estimate Ŵ_e for every element e with
// |f_e(A) − Ŵ_e| ≤ εW, and an estimate Ŵ of the total weight W. The
// φ-heavy-hitter query returns every element with Ŵ_e/Ŵ ≥ φ − ε/2, which by
// Lemma 1 of the paper returns every true φ-heavy hitter and nothing below
// (φ−ε)W.
//
// Protocols are deterministic single-threaded state machines; communication
// is tallied by a stream.Accountant so message counts are exact. P2 is
// defined once, as a site half and a coordinator half (P2Site,
// P2Coordinator, joined by P2Uplink): the P2 simulator composes them over a
// direct call. No daemon runs them apart yet; matrix P2's halves run in
// cmd/distsite and cmd/distserve.
package hh

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/gen"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Protocol is a distributed weighted heavy-hitters tracker.
type Protocol interface {
	// Name identifies the protocol in reports ("P1", "P2", ...).
	Name() string
	// Process delivers one stream element to the given site.
	Process(site int, elem uint64, weight float64)
	// Estimate returns the coordinator's estimate Ŵ_e of element e's weight.
	Estimate(elem uint64) float64
	// EstimateTotal returns the coordinator's estimate Ŵ of the total weight.
	EstimateTotal() float64
	// Candidates returns every tracked element whose estimate is at least
	// floor (−Inf: all), for heavy-hitter extraction; it filters, then sorts.
	Candidates(floor float64) []sketch.WeightedElement
	// Eps returns the protocol's error parameter.
	Eps() float64
	// Stats returns the communication tally so far.
	Stats() stream.Stats
}

// HeavyHitters applies the paper's query rule to a protocol: return e iff
// Ŵ_e/Ŵ ≥ φ − ε/2, sorted by descending estimate.
func HeavyHitters(p Protocol, phi float64) []sketch.WeightedElement {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("hh: need 0 < φ ≤ 1, got %v", phi))
	}
	what := p.EstimateTotal()
	if what <= 0 {
		return nil
	}
	out := p.Candidates((phi - p.Eps()/2) * what)
	sketch.SortByWeightDesc(out)
	return out
}

// candidatesOf returns the entries of est whose weight is at least floor,
// by ascending element.
func candidatesOf(est map[uint64]float64, floor float64) []sketch.WeightedElement {
	var out []sketch.WeightedElement
	for e, w := range est {
		if w >= floor {
			out = append(out, sketch.WeightedElement{Elem: e, Weight: w})
		}
	}
	slices.SortFunc(out, byElem)
	return out
}

// byElem orders weighted elements by ascending element.
func byElem(a, b sketch.WeightedElement) int { return cmp.Compare(a.Elem, b.Elem) }

// Run feeds a materialized stream through a protocol, assigning each element
// to a site with the given assigner.
func Run(p Protocol, items []gen.WeightedItem, asg stream.Assigner) {
	for _, it := range items {
		p.Process(asg.Next(), it.Elem, it.Weight)
	}
}

// CheckParams reports whether (m, eps) are valid protocol parameters. The
// public facade turns a non-nil result into its typed configuration error;
// the panicking internal constructors funnel through it too.
func CheckParams(m int, eps float64) error {
	if m < 1 {
		return fmt.Errorf("hh: need m ≥ 1 sites, got %d", m)
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("hh: need 0 < ε < 1, got %v", eps)
	}
	return nil
}

// CheckCopies reports whether copies is a valid amplification count for
// the P4 median protocol.
func CheckCopies(copies int) error {
	if copies < 1 {
		return fmt.Errorf("hh: need ≥ 1 copy, got %d", copies)
	}
	return nil
}

// validateParams panics on nonsensical parameters; shared by the protocol
// constructors.
func validateParams(m int, eps float64) {
	if err := CheckParams(m, eps); err != nil {
		panic(err.Error())
	}
}

func validateWeight(w float64) {
	if !gen.ValidWeight(w) {
		panic(fmt.Sprintf("hh: need a positive finite weight, got %v", w))
	}
}

func validateSite(site, m int) {
	if site < 0 || site >= m {
		panic(fmt.Sprintf("hh: site %d out of range [0,%d)", site, m))
	}
}
