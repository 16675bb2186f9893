package distmat

import (
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/hh"
)

// ProtocolInfo describes one registered protocol: its canonical registry
// name, the paper's guarantee and communication bound, and whether its
// behaviour depends on Config.Seed.
type ProtocolInfo struct {
	Name          string   // canonical lowercase registry key
	Display       string   // the Name() the built protocol reports
	Aliases       []string // accepted alternative spellings
	Summary       string   // one-line description
	Guarantee     string   // the approximation guarantee, "" if none
	Communication string   // the communication bound
	Randomized    bool     // true if the protocol consumes Config.Seed
}

// matrixEntry pairs a protocol's metadata with its builder. Builders run
// after Config validation, so they may assume valid parameters.
// sketchRows, where set, is the size of the FD sketches the tracker keeps,
// as a float64 before the builder converts it to an int.
type matrixEntry struct {
	info       ProtocolInfo
	build      func(Config) MatrixTracker
	sketchRows func(Config) float64
}

// hhEntry is the heavy-hitters analogue of matrixEntry.
type hhEntry struct {
	info  ProtocolInfo
	build func(Config) HHProtocol
}

// matrixEntries lists the registered matrix trackers in presentation order
// (protocols first, then baselines), mirroring the package-comment table.
var matrixEntries = []matrixEntry{
	{
		info: ProtocolInfo{
			Name:          "p1",
			Display:       "P1",
			Summary:       "batched Frequent Directions tracker (Section 5.1)",
			Guarantee:     "0 ≤ ‖Ax‖²−‖Bx‖² ≤ ε‖A‖²_F",
			Communication: "O((m/ε²)·log(βN)) rows",
		},
		build: func(c Config) MatrixTracker {
			if c.FastIngest {
				return core.NewP1Fast(c.Sites, c.Epsilon, c.Dim)
			}
			return core.NewP1(c.Sites, c.Epsilon, c.Dim)
		},
		sketchRows: func(c Config) float64 { return core.P1SketchRows(c.Epsilon) },
	},
	{
		info: ProtocolInfo{
			Name:          "p2",
			Display:       "P2",
			Summary:       "deterministic SVD-threshold tracker (Section 5.2), the paper's best",
			Guarantee:     "0 ≤ ‖Ax‖²−‖Bx‖² ≤ ε‖A‖²_F",
			Communication: "O((m/ε)·log(βN)) rows",
		},
		build: func(c Config) MatrixTracker {
			if c.FastIngest {
				return core.NewP2Fast(c.Sites, c.Epsilon, c.Dim)
			}
			return core.NewP2(c.Sites, c.Epsilon, c.Dim)
		},
	},
	{
		info: ProtocolInfo{
			Name:          "p2small",
			Display:       "P2small",
			Aliases:       []string{"p2smallspace", "p2-small"},
			Summary:       "P2 whose sites keep two ⌈4m/ε⌉-row FD sketches (a d×d Gram each once ℓ ≥ d) and share one d×d scratch",
			Guarantee:     "0 ≤ ‖Ax‖²−‖Bx‖² ≤ ε‖A‖²_F",
			Communication: "≤ 2× p2",
		},
		build: func(c Config) MatrixTracker {
			if c.FastIngest {
				return core.NewP2SmallSpaceFast(c.Sites, c.Epsilon, c.Dim)
			}
			return core.NewP2SmallSpace(c.Sites, c.Epsilon, c.Dim)
		},
		sketchRows: func(c Config) float64 { return core.P2SmallSketchRows(c.Sites, c.Epsilon) },
	},
	{
		info: ProtocolInfo{
			Name:          "p3",
			Display:       "P3",
			Aliases:       []string{"p3wor"},
			Summary:       "priority row-sampling tracker without replacement (Section 5.3)",
			Guarantee:     "|‖Ax‖²−‖Bx‖²| ≤ ε‖A‖²_F (whp)",
			Communication: "O((m+ε⁻²log(1/ε))·log(βN/s)) rows",
			Randomized:    true,
		},
		build: func(c Config) MatrixTracker { return core.NewP3(c.Sites, c.Epsilon, c.Dim, c.Seed) },
	},
	{
		info: ProtocolInfo{
			Name:          "p3wr",
			Display:       "P3wr",
			Summary:       "row-sampling tracker with replacement; dominated by p3, kept for comparison",
			Guarantee:     "|‖Ax‖²−‖Bx‖²| ≤ ε‖A‖²_F (whp)",
			Communication: "O((m+ε⁻²log(1/ε))·log(βN/s)) rows",
			Randomized:    true,
		},
		build: func(c Config) MatrixTracker { return core.NewP3WR(c.Sites, c.Epsilon, c.Dim, c.Seed) },
	},
	{
		info: ProtocolInfo{
			Name:          "p4",
			Display:       "P4",
			Summary:       "the appendix's negative result (Algorithm C.1); reproduces its failure mode",
			Guarantee:     "",
			Communication: "O((√m/ε)·log(βN)) rows",
			Randomized:    true,
		},
		build: func(c Config) MatrixTracker { return core.NewP4(c.Sites, c.Epsilon, c.Dim, c.Seed) },
	},
	{
		info: ProtocolInfo{
			Name:          "fd",
			Display:       "FD",
			Summary:       "centralized baseline: every row forwarded into an ℓ-row FD sketch (ℓ = Rank or ⌈1/ε⌉)",
			Guarantee:     "0 ≤ ‖Ax‖²−‖Bx‖² ≤ ‖A‖²_F/(ℓ+1)",
			Communication: "N rows (ships everything)",
		},
		build: func(c Config) MatrixTracker { return core.NewNaiveFD(c.Sites, c.fdRank(), c.Dim) },
		sketchRows: func(c Config) float64 {
			if c.Rank > 0 {
				return float64(c.Rank)
			}
			return 1 / c.Epsilon
		},
	},
	{
		info: ProtocolInfo{
			Name:          "svd",
			Display:       "SVD",
			Summary:       "exact centralized baseline (optimal, not communication-efficient)",
			Guarantee:     "exact",
			Communication: "N rows (ships everything)",
		},
		build: func(c Config) MatrixTracker { return core.NewNaiveSVD(c.Sites, c.Dim) },
	},
}

// hhEntries lists the registered heavy-hitters protocols.
var hhEntries = []hhEntry{
	{
		info: ProtocolInfo{
			Name:          "p1",
			Display:       "P1",
			Summary:       "batched Misra–Gries protocol (Section 4.1)",
			Guarantee:     "|f_e−Ŵ_e| ≤ εW",
			Communication: "O((m/ε²)·log(βN))",
		},
		build: func(c Config) HHProtocol { return hh.NewP1(c.Sites, c.Epsilon) },
	},
	{
		info: ProtocolInfo{
			Name:          "p2",
			Display:       "P2",
			Summary:       "deterministic Yi–Zhang-style protocol (Section 4.2), best deterministic bound",
			Guarantee:     "|f_e−Ŵ_e| ≤ εW",
			Communication: "O((m/ε)·log(βN))",
		},
		build: func(c Config) HHProtocol { return hh.NewP2(c.Sites, c.Epsilon) },
	},
	{
		info: ProtocolInfo{
			Name:          "p3",
			Display:       "P3",
			Summary:       "priority-sampling protocol (Section 4.3)",
			Guarantee:     "|f_e−Ŵ_e| ≤ εW (whp)",
			Communication: "O((m+ε⁻²log(1/ε))·log(βN/s))",
			Randomized:    true,
		},
		build: func(c Config) HHProtocol { return hh.NewP3(c.Sites, c.Epsilon, c.Seed) },
	},
	{
		info: ProtocolInfo{
			Name:          "p4",
			Display:       "P4",
			Summary:       "randomized Huang-style protocol (Section 4.4)",
			Guarantee:     "|f_e−Ŵ_e| ≤ εW (p ≥ 3/4)",
			Communication: "O((√m/ε)·log(βN))",
			Randomized:    true,
		},
		build: func(c Config) HHProtocol { return hh.NewP4(c.Sites, c.Epsilon, c.Seed) },
	},
	{
		info: ProtocolInfo{
			Name:          "p4median",
			Display:       "P4med",
			Aliases:       []string{"p4med"},
			Summary:       "P4 amplified to success probability 1−δ via Copies independent instances",
			Guarantee:     "|f_e−Ŵ_e| ≤ εW (p ≥ 1−δ, Copies = log(2/δ))",
			Communication: "Copies × p4",
			Randomized:    true,
		},
		build: func(c Config) HHProtocol { return hh.NewP4Median(c.Sites, c.Epsilon, c.Copies, c.Seed) },
	},
	{
		info: ProtocolInfo{
			Name:          "exact",
			Display:       "Exact",
			Summary:       "ground-truth tracker: centralizes every element",
			Guarantee:     "exact",
			Communication: "N messages (ships everything)",
		},
		build: func(c Config) HHProtocol { return hh.NewExact(c.Sites) },
	},
}

// lookupMatrix and lookupHH map every canonical name and alias to its
// entry; built once at package init.
var (
	lookupMatrix = make(map[string]*matrixEntry, len(matrixEntries))
	lookupHH     = make(map[string]*hhEntry, len(hhEntries))
)

func init() {
	for i := range matrixEntries {
		e := &matrixEntries[i]
		lookupMatrix[e.info.Name] = e
		for _, a := range e.info.Aliases {
			lookupMatrix[a] = e
		}
	}
	for i := range hhEntries {
		e := &hhEntries[i]
		lookupHH[e.info.Name] = e
		for _, a := range e.info.Aliases {
			lookupHH[a] = e
		}
	}
}

// canonicalName normalizes a user-supplied protocol name for lookup.
func canonicalName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// MatrixProtocols returns the canonical names of every registered matrix
// tracker, in presentation order (protocols first, then baselines).
func MatrixProtocols() []string {
	out := make([]string, len(matrixEntries))
	for i, e := range matrixEntries {
		out[i] = e.info.Name
	}
	return out
}

// HHProtocols returns the canonical names of every registered heavy-hitters
// protocol, in presentation order.
func HHProtocols() []string {
	out := make([]string, len(hhEntries))
	for i, e := range hhEntries {
		out[i] = e.info.Name
	}
	return out
}

// MatrixProtocolInfos returns the metadata of every registered matrix
// tracker, in the same order as MatrixProtocols.
func MatrixProtocolInfos() []ProtocolInfo {
	out := make([]ProtocolInfo, len(matrixEntries))
	for i, e := range matrixEntries {
		out[i] = e.info
	}
	return out
}

// HHProtocolInfos returns the metadata of every registered heavy-hitters
// protocol, in the same order as HHProtocols.
func HHProtocolInfos() []ProtocolInfo {
	out := make([]ProtocolInfo, len(hhEntries))
	for i, e := range hhEntries {
		out[i] = e.info
	}
	return out
}

// LookupMatrixProtocol returns the metadata of the named matrix tracker
// (case-insensitive, aliases accepted) and whether it is registered —
// existence and display-name queries without constructing anything.
func LookupMatrixProtocol(name string) (ProtocolInfo, bool) {
	e, ok := lookupMatrix[canonicalName(name)]
	if !ok {
		return ProtocolInfo{}, false
	}
	return e.info, true
}

// LookupHHProtocol is the heavy-hitters analogue of LookupMatrixProtocol.
func LookupHHProtocol(name string) (ProtocolInfo, bool) {
	e, ok := lookupHH[canonicalName(name)]
	if !ok {
		return ProtocolInfo{}, false
	}
	return e.info, true
}

// NewMatrixByName builds the named matrix tracker from cfg. Name lookup is
// case-insensitive and accepts the registered aliases; unknown names return
// ErrUnknownProtocol and invalid configurations ErrInvalidConfig. With
// Shards > 1 the protocol is built once per shard (randomized protocols at
// Seed+shardIndex) inside a core.ShardedTracker that deals ingestion blocks
// across worker goroutines and merges shard Grams at query time; call
// Session.Close (or the tracker's own Close) when done to stop the workers.
func NewMatrixByName(name string, cfg Config) (MatrixTracker, error) {
	e, ok := lookupMatrix[canonicalName(name)]
	if !ok {
		return nil, unknownProtocol("matrix", name, MatrixProtocols())
	}
	if err := cfg.validateMatrix(); err != nil {
		return nil, err
	}
	// Past MaxInt the conversion to an int wraps and the sketch constructor
	// panics.
	if e.sketchRows != nil {
		if rows := e.sketchRows(cfg); !(rows < math.MaxInt) {
			return nil, invalidConfigf("%s at m = %d, ε = %g needs %g sketch rows, more than an int holds", e.info.Name, cfg.Sites, cfg.Epsilon, rows)
		}
	}
	if cfg.Shards > 1 {
		return core.NewShardedTracker(cfg.Shards, func(shard int) core.Tracker {
			sc := cfg
			sc.Shards = 0
			sc.Seed = cfg.Seed + int64(shard)
			return e.build(sc)
		}), nil
	}
	return e.build(cfg), nil
}

// NewHHByName builds the named heavy-hitters protocol from cfg. Name lookup
// is case-insensitive and accepts the registered aliases; unknown names
// return ErrUnknownProtocol and invalid configurations ErrInvalidConfig.
// With Shards > 1 the protocol is built once per shard (randomized
// protocols at Seed+shardIndex) inside an hh.Sharded tracker that deals
// item batches across worker goroutines and merges the shard coordinator
// summaries at query time; call Session.Close (or the tracker's own Close)
// when done to stop the workers.
func NewHHByName(name string, cfg Config) (HHProtocol, error) {
	e, ok := lookupHH[canonicalName(name)]
	if !ok {
		return nil, unknownProtocol("heavy-hitters", name, HHProtocols())
	}
	if err := cfg.validateHH(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return hh.NewSharded(cfg.Shards, cfg.Sites, func(shard int) hh.Protocol {
			sc := cfg
			sc.Shards = 0
			sc.Seed = cfg.Seed + int64(shard)
			return e.build(sc)
		}), nil
	}
	return e.build(cfg), nil
}

// NewMatrix builds the named matrix tracker from functional options applied
// on top of DefaultConfig: the primary matrix constructor.
//
//	tr, err := distmat.NewMatrix("p2", distmat.WithSites(8),
//		distmat.WithEpsilon(0.1), distmat.WithDim(44))
func NewMatrix(proto string, opts ...Option) (MatrixTracker, error) {
	return NewMatrixByName(proto, NewConfig(opts...))
}

// NewHH builds the named heavy-hitters protocol from functional options
// applied on top of DefaultConfig: the primary heavy-hitters constructor.
//
//	p, err := distmat.NewHH("p2", distmat.WithSites(8), distmat.WithEpsilon(0.01))
func NewHH(proto string, opts ...Option) (HHProtocol, error) {
	return NewHHByName(proto, NewConfig(opts...))
}
