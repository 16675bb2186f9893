package distmat

import (
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

// ---- distributed matrix tracking (the paper's primary contribution) ----

// MatrixTracker is a distributed matrix tracking protocol; see the package
// comment for the guarantee each implementation carries. Build one with
// NewMatrix / NewMatrixByName.
type MatrixTracker = core.Tracker

// Sym is a symmetric d×d matrix; trackers expose their approximation as the
// Gram matrix BᵀB in this form.
type Sym = matrix.Sym

// Dense is a row-major dense matrix.
type Dense = matrix.Dense

// WindowedTracker is the tumbling-window wrapper around a matrix tracker;
// matrix Sessions built with WithWindow use it under the hood.
type WindowedTracker = core.WindowedTracker

// NewWindowedTracker wraps fresh trackers from build into a tumbling-window
// tracker covering the most recent ~window rows (the restart construction;
// see internal/core/window.go).
func NewWindowedTracker(window int, build func() MatrixTracker) *WindowedTracker {
	return core.NewWindowedTracker(window, build)
}

// CovarianceError returns ‖AᵀA − BᵀB‖₂ / ‖A‖²_F, the paper's matrix error
// metric, given the exact and approximate Grams.
func CovarianceError(exact, approx *Sym) (float64, error) {
	return metrics.CovarianceError(exact, approx)
}

// RankKError returns the optimal rank-k error σ²_{k+1}/‖A‖²_F of the exact
// Gram — the quality bar of an offline SVD. A negative k is an
// ErrInvalidConfig.
func RankKError(exact *Sym, k int) (float64, error) {
	e, err := metrics.RankKError(exact, k)
	if err != nil && k < 0 {
		return 0, invalidConfig(err)
	}
	return e, err
}

// ---- standalone matrix sketching primitives ----

// FrequentDirections is Liberty's matrix sketch, the centralized building
// block of Matrix P1; see sketch.FD for the full API.
type FrequentDirections = sketch.FD

// NewFrequentDirections returns an ℓ-row FD sketch for d-dimensional rows
// with deterministic error ‖A‖²_F/(ℓ+1), using the default 2ℓ-row blocked
// ingest buffer (one factorization per 2ℓ rows; see AppendRows for batch
// ingestion).
func NewFrequentDirections(ell, d int) *FrequentDirections { return sketch.NewFD(ell, d) }
