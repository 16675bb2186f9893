package core

import (
	"fmt"

	"repro/internal/matrix"
)

// The per-row ingest steps that the trackers carried beside ProcessRows
// until a row became a one-row batch, kept as the exact-mode oracle: every
// batch cut — one-row slices included — must reproduce them bit for bit
// (assertByteIdentical). The bodies are the old code verbatim but for the
// oracle prefix and P1's reads of its stream.P1. P3, P3WR and P4 had no
// per-row body of their own (their batch loop called the same helper), so
// their reference is the one-row feed.

// rowOracle is a tracker that has its old per-row step here.
type rowOracle interface {
	oracleProcessRow(site int, row []float64)
}

func validateRow(row []float64, d int) {
	if len(row) != d {
		panic(fmt.Sprintf("core: row of length %d, want %d", len(row), d))
	}
}

// oracleProcessRow is P1's per-row Algorithm 5.1.
func (p *P1) oracleProcessRow(site int, row []float64) {
	validateSite(site, p.m)
	validateRow(row, p.d)
	p.sites[site].Append(row)
	p.rule.Mass[site] += matrix.NormSq(row)
	tau := (p.eps / (2 * float64(p.m))) * p.rule.What
	if p.rule.Mass[site] >= tau {
		p.ship(site)
	}
}

// oracleProcessRow is P2's per-row Algorithm 5.3 over the site halves'
// oracle step.
func (p *P2) oracleProcessRow(site int, row []float64) {
	validateSite(site, p.m)
	validateRow(row, p.Dim())
	mustP2(p.sites[site].oracleProcessRow(row))
}

// oracleProcessRow is the exact per-row step of Algorithm 5.3 for a row of
// length d. The error is an eigensolver failure (a non-finite Gram) after
// the row was ingested.
func (s *P2Site) oracleProcessRow(row []float64) error {
	w := matrix.NormSq(row)

	// Scalar side-channel for F̂.
	s.fdelta += w
	if s.fdelta >= (s.eps/float64(s.m))*s.fhat {
		s.up.Scalar(s.id, s.fdelta)
		s.fdelta = 0
	}

	// Row accumulation with the exact deferred-svd bound, in each store's
	// old per-row arithmetic. P2SmallSpace's per-row step is this one over
	// its fdPair stores.
	switch b := s.b.(type) {
	case *p2Gram:
		b.g.AddOuter(1, row)
		if b.empty {
			b.soleRow = append(b.soleRow[:0], row...)
			b.empty = false
		} else {
			b.soleRow = nil
		}
	case *fdPair:
		b.recv.Append(row)
	}
	s.lamBound += w
	return s.settle()
}

// oracleProcessRow is NaiveFD's per-row forward.
func (b *NaiveFD) oracleProcessRow(site int, row []float64) {
	validateSite(site, b.m)
	validateRow(row, b.d)
	b.acct.SendUp(1)
	b.fro += matrix.NormSq(row)
	b.sk.Append(row)
}

// oracleProcessRow is NaiveSVD's per-row forward.
func (b *NaiveSVD) oracleProcessRow(site int, row []float64) {
	validateSite(site, b.m)
	validateRow(row, b.d)
	b.acct.SendUp(1)
	b.fro += matrix.NormSq(row)
	b.gram.AddOuter(1, row)
}

// oracleProcessRow is WindowedTracker's per-row step over the inner
// tracker's oracle step (a one-row batch where the inner tracker has none).
func (w *WindowedTracker) oracleProcessRow(site int, row []float64) {
	w.rotate()
	if o, ok := w.current.(rowOracle); ok {
		o.oracleProcessRow(site, row)
	} else {
		w.current.ProcessRows(site, [][]float64{row})
	}
	w.inCur++
	w.total++
}
