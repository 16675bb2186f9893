// Package distmat is the public API of this repository: a Go implementation
// of "Continuous Matrix Approximation on Distributed Data" (Ghashami,
// Phillips, Li — VLDB 2014).
//
// # Model
//
// m distributed sites each observe a stream of items; every site has a
// two-way channel with a single coordinator. Two tracking problems are
// solved continuously (valid after every arrival), with communication far
// below shipping the stream:
//
//   - Weighted heavy hitters: every item is an (element, weight) pair; the
//     coordinator maintains Ŵ_e with |f_e − Ŵ_e| ≤ εW for all elements.
//   - Matrix approximation: every item is a row a ∈ R^d of a matrix A; the
//     coordinator maintains B with |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F for all unit x,
//     i.e. ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F, the covariance guarantee behind PCA/LSI.
//
// # Protocols
//
// Four heavy-hitter protocols (HH P1–P4) and four matrix trackers (Matrix
// P1–P3 plus the paper's negative-result P4) are provided, with the
// centralized Frequent Directions sketch available as a standalone
// primitive. Every protocol is registered by name — see
// MatrixProtocols and HHProtocols — and is built from a validated Config:
//
//	Name         Guarantee                  Communication
//	hh p1        |f_e−Ŵ_e| ≤ εW             O((m/ε²)·log(βN))
//	hh p2        |f_e−Ŵ_e| ≤ εW             O((m/ε)·log(βN))
//	hh p3        |f_e−Ŵ_e| ≤ εW  (whp)      O((m+ε⁻²log(1/ε))·log(βN/s))
//	hh p4        |f_e−Ŵ_e| ≤ εW  (p ≥ 3/4)  O((√m/ε)·log(βN))
//	matrix p1    0 ≤ ‖Ax‖²−‖Bx‖² ≤ ε‖A‖²_F  O((m/ε²)·log(βN)) rows
//	matrix p2    0 ≤ ‖Ax‖²−‖Bx‖² ≤ ε‖A‖²_F  O((m/ε)·log(βN)) rows
//	matrix p3    |‖Ax‖²−‖Bx‖²| ≤ ε‖A‖²_F    O((m+ε⁻²log(1/ε))·log(βN/s)) rows
//	matrix p4    none (negative result)      O((√m/ε)·log(βN)) rows
//
// β bounds item weights (squared row norms); N is the stream length at
// query time. The registry also carries the p2small bounded-site-space
// variant, the p3wr with-replacement sampler, the hh p4median
// amplification, and the fd/svd/exact baselines.
//
// # Quick start
//
//	sess, err := distmat.NewMatrixSession("p2",
//		distmat.WithSites(8),      // m distributed sites
//		distmat.WithEpsilon(0.1),  // approximation error target
//		distmat.WithDim(44),       // row dimension d
//	)
//	if err != nil { ... }
//	if err := sess.ProcessRows(rows); err != nil { ... } // any site, any order
//	snap := sess.Snapshot()
//	fmt.Println(snap.Gram.Trace(), snap.Stats) // BᵀB estimate + messages used
//
// See examples/ for runnable programs and internal/experiments for the
// harness regenerating the paper's evaluation.
//
// # API shape
//
// The surface is organized around three pillars:
//
//   - Config + functional options (config.go): one validated parameter
//     object; invalid values surface as ErrInvalidConfig, never a panic.
//   - A protocol registry (registry.go): name-keyed construction via
//     NewMatrix/NewHH (options) or NewMatrixByName/NewHHByName (a Config
//     value), so protocol choice is data, e.g. a CLI's -protocol flag.
//   - Sessions (session.go): batch ingestion over tracker+assigner with
//     immutable Snapshots, per-site ...At ingestion for deployments where
//     the caller is the site, and checkpointing via SaveState /
//     RestoreSession (persist.go) for the deterministic protocols —
//     cmd/distserve serves all of this over HTTP.
package distmat

import (
	"repro/internal/gen"
	"repro/internal/stream"
)

// ---- stream plumbing ----

// Stats tallies protocol communication (messages and size units).
type Stats = stream.Stats

// Assigner deals stream elements to sites.
type Assigner = stream.Assigner

// NewRoundRobin returns a cyclic site assigner.
func NewRoundRobin(m int) Assigner { return stream.NewRoundRobin(m) }

// NewUniformRandom returns a uniformly random site assigner (the paper's
// arrival model), deterministic per seed.
func NewUniformRandom(m int, seed int64) Assigner { return stream.NewUniformRandom(m, seed) }

// ---- deployment ----
//
// The trackers built by the registry are deterministic single-threaded
// simulations — ideal for experiments and exact message accounting. A
// deployment runs matrix P2's two halves in two daemons over the
// internal/wire transport: cmd/distsite runs a site's half and streams its
// messages, and a cmd/distserve tracker applies them to its coordinator
// half and broadcasts F̂ back. The facade exports no runtime of its own.

// ---- workload generation ----

// ZipfConfig configures a Zipfian weighted stream.
type ZipfConfig = gen.ZipfConfig

// DefaultZipfConfig returns the paper's stream parameters at length n.
func DefaultZipfConfig(n int) ZipfConfig { return gen.DefaultZipfConfig(n) }

// ZipfStream materializes a weighted Zipfian stream.
func ZipfStream(cfg ZipfConfig) []WeightedItem { return gen.ZipfStream(cfg) }

// MatrixConfig configures a synthetic matrix stream.
type MatrixConfig = gen.MatrixConfig

// PAMAPLike returns the low-rank synthetic profile standing in for the
// paper's PAMAP dataset (d = 44).
func PAMAPLike(n int) MatrixConfig { return gen.PAMAPLike(n) }

// MSDLike returns the high-rank synthetic profile standing in for the
// paper's YearPredictionMSD dataset (d = 90).
func MSDLike(n int) MatrixConfig { return gen.MSDLike(n) }

// LowRankMatrix generates a low-rank-plus-noise row stream.
func LowRankMatrix(cfg MatrixConfig) [][]float64 { return gen.LowRankMatrix(cfg) }

// HighRankMatrix generates a heavy-spectral-tail row stream.
func HighRankMatrix(cfg MatrixConfig) [][]float64 { return gen.HighRankMatrix(cfg) }
