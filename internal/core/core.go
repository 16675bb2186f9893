// Package core implements the paper's primary contribution: protocols for
// continuously tracking an approximation to a distributed streaming matrix
// (Section 5 and Appendix C).
//
// Each stream element is a row a ∈ R^d arriving at one of m sites. The
// coordinator continuously maintains a small matrix B such that, for every
// unit vector x,
//
//	|‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F,   equivalently  ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F.
//
// Three tracking protocols are provided — P1 (batched Frequent Directions),
// P2 (deterministic SVD-threshold, the paper's best: O((m/ε)·log(βN)) rows
// of communication), P3 (priority row-sampling, with and without
// replacement) — plus P4, the appendix's negative result, included to
// reproduce its failure experimentally (Figures 6 and 7).
//
// P2 is defined once, as a site half and a coordinator half (P2Site,
// P2Coordinator, joined by P2Uplink); the P2 simulator embeds the
// coordinator half, which owns the tally and the query surface, and is the
// bit-exact specification. P2SmallSpace is that simulator with each site's
// unsent rows held as two FD sketches instead of a Gram. In a deployment each
// half runs in its own daemon: cmd/distsite steps a P2Site per block, and a
// distserve tracker fed the sites' messages is a P2Coordinator alone.
//
// Coordinator approximations are exposed as d×d Gram matrices BᵀB, which is
// the exact object the error metric and all downstream uses (PCA, LSI)
// consume, and which every protocol here can maintain in O(d²) space.
package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// Tracker is a distributed matrix tracking protocol.
type Tracker interface {
	// Name identifies the protocol in reports ("P1", "P2", ...).
	Name() string
	// ProcessRows delivers a batch of rows arriving at one site; a row is a
	// one-row batch. The whole batch is validated before any row is
	// ingested: a bad row or site panics with nothing applied.
	ProcessRows(site int, rows [][]float64)
	// Gram returns the coordinator's current estimate of BᵀB as a matrix
	// the caller owns: a copy or a fresh build, never the tracker's live
	// state, so callers may keep it across further ingestion and mutate it
	// (WindowedTracker.Gram adds into it; Session.Snapshot hands it out as
	// the immutable view). TestGramIsCallerOwned holds every registered
	// protocol to this.
	Gram() *matrix.Sym
	// EstimateFrobenius returns the coordinator's estimate of ‖A‖²_F.
	EstimateFrobenius() float64
	// Dim returns the row dimension d.
	Dim() int
	// Eps returns the protocol's error parameter.
	Eps() float64
	// Stats returns the communication tally so far.
	Stats() stream.Stats
}

// IngestMode selects a tracker's batch-ingestion arithmetic. Trackers
// default to IngestExact; the *Fast constructors opt in to IngestFast.
type IngestMode int

const (
	// IngestExact is the byte-identical mode: ProcessRows over a batch
	// equals ProcessRows over its one-row slices in order, bit for bit —
	// same state, same message tallies, every per-row trigger evaluated at
	// its exact row index. It is the oracle the cross-mode equivalence
	// tests compare against.
	IngestExact IngestMode = iota

	// IngestFast is the blocked mode: a whole known-mass prefix folds into
	// the site state with one rank-k update read where the rows lie
	// (matrix.Sym.AddBlock / sketch.FD.AppendRows) and the expensive
	// eigendecomposition or merge work runs once per block instead of once
	// per row. The documented relaxations, per protocol:
	//
	//   - P1: message counts and ship rows are identical to exact mode (the
	//     ship trigger reads only the scalar mass side-channel); only the
	//     coordinator's merge arithmetic changes — shipped sketch Grams
	//     accumulate directly instead of re-running FD compression, which
	//     never increases the error (fewer shrink deductions).
	//   - P2/P2small: scalar F̂ messages stay at their exact row indices,
	//     but the site eigendecomposition is deferred to the end of the
	//     block that crosses the λ₁ + newMass bound, so row-ship messages
	//     may coalesce (never exceeding exact mode's count on the same
	//     blocks by more than the ship-early factor of 2 already documented
	//     on P2.shipFrac). Blocked Gram updates reassociate floating-point
	//     sums, so sketch contents may differ from exact mode in the last
	//     ulps.
	//
	// In every mode the covariance guarantee 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F
	// holds at each batch boundary; exact mode additionally holds it at
	// every row.
	IngestFast
)

// String names the mode for reports and bench artifacts.
func (m IngestMode) String() string {
	if m == IngestFast {
		return "fast"
	}
	return "exact"
}

// ProcessRows is t.ProcessRows(site, rows); bench/ calls it.
func ProcessRows(t Tracker, site int, rows [][]float64) { t.ProcessRows(site, rows) }

// Run feeds a materialized row stream through a tracker with the given site
// assigner, and returns the exact Gram matrix AᵀA of the whole stream for
// evaluation.
func Run(t Tracker, rows [][]float64, asg stream.Assigner) *matrix.Sym {
	exact := matrix.NewSym(t.Dim())
	for i, row := range rows {
		exact.AddOuter(1, row)
		t.ProcessRows(asg.Next(), rows[i:i+1])
	}
	return exact
}

// CheckParams reports whether (m, eps, d) are valid tracker parameters.
// The public facade turns a non-nil result into its typed configuration
// error; the panicking internal constructors funnel through it too, so the
// two paths agree on what is valid.
func CheckParams(m int, eps float64, d int) error {
	if m < 1 {
		return fmt.Errorf("core: need m ≥ 1 sites, got %d", m)
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("core: need 0 < ε < 1, got %v", eps)
	}
	if d < 1 {
		return fmt.Errorf("core: need d ≥ 1, got %d", d)
	}
	return nil
}

// CheckWindow reports whether window is a valid tumbling-window size.
func CheckWindow(window int) error {
	if window < 2 {
		return fmt.Errorf("core: need window ≥ 2, got %d", window)
	}
	return nil
}

func validateParams(m int, eps float64, d int) {
	if err := CheckParams(m, eps, d); err != nil {
		panic(err.Error())
	}
}

func validateRows(rows [][]float64, d int) {
	for _, row := range rows {
		if len(row) != d {
			panic(fmt.Sprintf("core: row of length %d, want %d", len(row), d))
		}
	}
}

func validateSite(site, m int) {
	if site < 0 || site >= m {
		panic(fmt.Sprintf("core: site %d out of range [0,%d)", site, m))
	}
}
