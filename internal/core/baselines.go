package core

import (
	"repro/internal/matrix"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// NaiveFD is the first baseline of Section 6.2: every site forwards every
// row to the coordinator (Ω(N) messages), which runs a single centralized
// Frequent Directions sketch. It gives excellent error at maximal
// communication.
type NaiveFD struct {
	m, d int
	ell  int
	acct *stream.Accountant
	sk   *sketch.FD
	fro  float64
}

// NewNaiveFD builds the baseline with an ℓ-row FD sketch at the coordinator.
func NewNaiveFD(m, ell, d int) *NaiveFD {
	validateParams(m, 0.5, d) // eps unused
	return &NaiveFD{
		m:    m,
		d:    d,
		ell:  ell,
		acct: stream.NewAccountant(m),
		sk:   sketch.NewFD(ell, d),
	}
}

// Name implements Tracker.
func (b *NaiveFD) Name() string { return "FD" }

// Dim implements Tracker.
func (b *NaiveFD) Dim() int { return b.d }

// Eps returns the FD sketch's deterministic error bound 1/(ℓ+1).
func (b *NaiveFD) Eps() float64 { return 1 / float64(b.ell+1) }

// ProcessRows implements Tracker: every row is one forwarded message
// (SendUpN tallies n single-unit messages exactly like n SendUp calls),
// and the batch lands in the coordinator sketch through the blocked FD
// fast path.
func (b *NaiveFD) ProcessRows(site int, rows [][]float64) {
	validateSite(site, b.m)
	validateRows(rows, b.d)
	if len(rows) == 0 {
		return
	}
	b.acct.SendUpN(len(rows), 1)
	for _, row := range rows {
		b.fro += matrix.NormSq(row)
	}
	b.sk.AppendRows(rows)
}

// Gram implements Tracker.
func (b *NaiveFD) Gram() *matrix.Sym { return b.sk.Gram() }

// Sites implements SiteCounter.
func (b *NaiveFD) Sites() int { return b.m }

// AccumulateGram implements GramAccumulator: the sketch's factored Gram —
// including buffered rows, without flushing — folds into dst without
// allocating.
func (b *NaiveFD) AccumulateGram(dst *matrix.Sym, w float64) { b.sk.AccumulateGram(dst, w) }

// EstimateFrobenius implements Tracker.
func (b *NaiveFD) EstimateFrobenius() float64 { return b.fro }

// Stats implements Tracker.
func (b *NaiveFD) Stats() stream.Stats { return b.acct.Stats() }

// NaiveSVD is the second baseline: every row is forwarded and the
// coordinator retains the exact Gram matrix, from which the optimal rank-k
// approximation A_k (the offline SVD answer) is computed on demand. It is
// not a streaming algorithm in the paper's sense — it is the quality
// optimum.
type NaiveSVD struct {
	m, d int
	acct *stream.Accountant
	gram *matrix.Sym
	fro  float64
}

// NewNaiveSVD builds the exact baseline.
func NewNaiveSVD(m, d int) *NaiveSVD {
	validateParams(m, 0.5, d)
	return &NaiveSVD{m: m, d: d, acct: stream.NewAccountant(m), gram: matrix.NewSym(d)}
}

// Name implements Tracker.
func (b *NaiveSVD) Name() string { return "SVD" }

// Dim implements Tracker.
func (b *NaiveSVD) Dim() int { return b.d }

// Eps returns 0: the exact tracker has no error.
func (b *NaiveSVD) Eps() float64 { return 0 }

// ProcessRows implements Tracker; see NaiveFD.ProcessRows for the message
// accounting.
func (b *NaiveSVD) ProcessRows(site int, rows [][]float64) {
	validateSite(site, b.m)
	validateRows(rows, b.d)
	if len(rows) == 0 {
		return
	}
	b.acct.SendUpN(len(rows), 1)
	for _, row := range rows {
		b.fro += matrix.NormSq(row)
		b.gram.AddOuter(1, row)
	}
}

// Gram implements Tracker (exact AᵀA).
func (b *NaiveSVD) Gram() *matrix.Sym { return b.gram.Clone() }

// Sites implements SiteCounter.
func (b *NaiveSVD) Sites() int { return b.m }

// AccumulateGram implements GramAccumulator.
func (b *NaiveSVD) AccumulateGram(dst *matrix.Sym, w float64) { dst.AddScaledSym(w, b.gram) }

// EstimateFrobenius implements Tracker.
func (b *NaiveSVD) EstimateFrobenius() float64 { return b.fro }

// Stats implements Tracker.
func (b *NaiveSVD) Stats() stream.Stats { return b.acct.Stats() }

var (
	_ Tracker = (*NaiveFD)(nil)
	_ Tracker = (*NaiveSVD)(nil)
)
