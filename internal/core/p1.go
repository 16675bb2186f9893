package core

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// P1 is the batched Frequent Directions protocol of Section 5.1
// (Algorithms 5.1/5.2), the matrix analogue of heavy-hitters P1. Every site
// runs an FD sketch with error ε/2 plus a local squared-Frobenius counter
// F_i; when F_i reaches τ = (ε/2m)·F̂ the site ships its sketch rows to the
// coordinator and resets. The coordinator merges the sketches (FD is
// mergeable, so the error stays additive) and broadcasts a refreshed F̂
// whenever its tally grows past (1+ε/2)·F̂.
//
// Guarantee: |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F.
// Communication: O((m/ε²)·log(βN)) rows.
type P1 struct {
	m, d int
	eps  float64
	mode IngestMode
	rule stream.P1 // F_i per site, F_C, F̂ and the message tally

	sites []*sketch.FD
	// Coordinator state. Exact mode merges shipped site sketches into an FD
	// sketch (one compression per ship); fast mode accumulates their Grams
	// directly into coordGram — same messages at the same rows, no
	// coordinator factorizations, and an error that is never larger (direct
	// accumulation skips the merge's extra shrink deductions).
	merged    *sketch.FD
	coordGram *matrix.Sym
}

// NewP1 builds the protocol for m sites, error ε, dimension d. The site and
// coordinator FD sketches use ℓ = ⌈2/ε⌉ rows (error ε/2 each, ε in total
// with the unsent site mass).
func NewP1(m int, eps float64, d int) *P1 {
	p, ell := newP1(m, eps, d)
	p.merged = sketch.NewFD(ell, d)
	return p
}

// NewP1Fast builds the protocol in the blocked fast ingest mode: ship
// points and message counts are identical to exact mode (the ship trigger
// reads only the scalar mass side-channel), but shipped site sketches
// accumulate into a coordinator Gram without re-running FD compression
// (see IngestFast). Only the mode's own coordinator representation is
// allocated: coordGram here, the merged FD sketch in exact mode.
func NewP1Fast(m int, eps float64, d int) *P1 {
	p, _ := newP1(m, eps, d)
	p.mode = IngestFast
	p.coordGram = matrix.NewSym(d)
	return p
}

// P1SketchRows is ℓ = ⌈2/ε⌉ + 1, the size of P1's FD sketches, before its
// conversion to an int: a small enough ε puts it past what an int holds.
func P1SketchRows(eps float64) float64 { return math.Ceil(2/eps) + 1 }

// newP1 builds the mode-independent state and returns the sketch size ℓ.
func newP1(m int, eps float64, d int) (*P1, int) {
	validateParams(m, eps, d)
	ell := int(P1SketchRows(eps))
	p := &P1{m: m, d: d, eps: eps, rule: stream.NewP1(m, eps), sites: make([]*sketch.FD, m)}
	for i := range p.sites {
		p.sites[i] = sketch.NewFD(ell, d)
	}
	return p, ell
}

// Name implements Tracker.
func (p *P1) Name() string { return "P1" }

// Dim implements Tracker.
func (p *P1) Dim() int { return p.d }

// Eps implements Tracker.
func (p *P1) Eps() float64 { return p.eps }

// ProcessRows implements Tracker (Algorithm 5.1): rows are folded into the
// site sketch through the blocked FD fast path in segments delimited by the
// ship threshold. The mass threshold τ depends only on F̂, which changes
// only at a ship, so scanning the prefix sums up to the first crossing
// reproduces the per-row trigger points exactly: identical ships,
// identical message tallies, identical sketch state.
//
//distlint:hotpath
func (p *P1) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.d)
	for start := 0; start < len(rows); {
		end, full := start, false
		for end < len(rows) && !full {
			full = p.rule.Add(site, matrix.NormSq(rows[end]))
			end++
		}
		p.sites[site].AppendRows(rows[start:end])
		if full {
			p.ship(site)
		}
		start = end
	}
}

// ship sends the site's sketch to the coordinator (Algorithm 5.2).
//
//distlint:hotpath
func (p *P1) ship(site int) {
	sk := p.sites[site]
	// Message volume: the sketch rows, with the scalar F_i piggybacked on
	// the first row. RowBound avoids forcing a factorization just to count
	// rows.
	p.rule.Ship(site, sk.RowBound())
	if p.mode == IngestFast {
		// Fold the shipped sketch's Gram straight into the coordinator
		// estimate: no flush, no factorization, no allocation. FD
		// mergeability makes this sound — the deductions still add — and
		// skipping the merged sketch's own shrink only tightens the bound.
		sk.AccumulateGram(p.coordGram, 1)
	} else {
		p.merged.Merge(sk)
	}
	sk.Reset()
}

// Gram implements Tracker.
func (p *P1) Gram() *matrix.Sym {
	if p.mode == IngestFast {
		return p.coordGram.Clone()
	}
	return p.merged.Gram()
}

// Sites implements SiteCounter.
func (p *P1) Sites() int { return p.m }

// AccumulateGram implements GramAccumulator: the coordinator estimate folds
// into dst without allocating (through the FD sketch's own accumulator in
// exact mode).
func (p *P1) AccumulateGram(dst *matrix.Sym, w float64) {
	if p.mode == IngestFast {
		dst.AddScaledSym(w, p.coordGram)
		return
	}
	p.merged.AccumulateGram(dst, w)
}

// EstimateFrobenius implements Tracker.
func (p *P1) EstimateFrobenius() float64 { return p.rule.Tally }

// Stats implements Tracker.
func (p *P1) Stats() stream.Stats { return p.rule.Acct.Stats() }
