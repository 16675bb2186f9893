package distmat

import (
	"repro/internal/core"
	"repro/internal/hh"
	"repro/internal/quantile"
)

// Config collects every parameter a protocol constructor or Session can
// consume. Zero or unset fields take the DefaultConfig values; protocols
// read only the fields they need (a heavy-hitters protocol ignores Dim, a
// deterministic one ignores Seed). Build one with NewConfig and functional
// options, or fill the struct directly and pass it to NewMatrixByName /
// NewHHByName.
type Config struct {
	// Sites is m, the number of distributed sites. Must be ≥ 1.
	Sites int
	// Epsilon is the approximation error parameter ε ∈ (0, 1).
	Epsilon float64
	// Dim is the row dimension d for matrix protocols. Must be ≥ 1 when a
	// matrix protocol is constructed; ignored elsewhere.
	Dim int
	// Seed drives all protocol and assigner randomness; runs with equal
	// seeds are bit-identical.
	Seed int64
	// Copies is the number of independent instances for the amplified HH
	// protocol p4median. Must be ≥ 1.
	Copies int
	// Rank is the sketch size ℓ for the fd baseline tracker. When 0 it
	// defaults to ⌈1/ε⌉, matching FD's ‖A‖²_F/(ℓ+1) error to ε.
	Rank int
	// Bits is the value-universe exponent for quantile tracking: values
	// live in [0, 2^Bits). Must be in [1, 62].
	Bits uint
	// Window, when > 0, wraps matrix sessions in the tumbling-window
	// construction covering the most recent ~Window rows. Must be ≥ 2
	// when set.
	Window int
	// TrackExact makes a matrix Session also maintain the exact Gram AᵀA
	// alongside the protocol's approximation, for evaluation. Costs O(d²)
	// per row.
	TrackExact bool
	// Shards, when > 1, runs the tracker as P = min(Shards, Sites)
	// shards summed at query time. A shard owns sites: site j belongs to
	// shard j mod P, a private tracker instance over its ⌈(Sites−k)/P⌉
	// sites; min(P, GOMAXPROCS) worker goroutines apply the shards' blocks,
	// and a query answers with the in-shard-order sum of the shard answers:
	// shard Grams (core.ShardedTracker), estimates (hh.Sharded) or
	// coordinator digests (quantile.Sharded). The guarantee holds at every
	// query because the per-shard error bounds add: Σ ε·W_k = εW. Each shard's thresholds are
	// about a single tracker's, so the shards together send about the
	// messages one tracker sends (for matrix P2, O((m/ε)·log βN)), and a
	// sharded P2 holds (m + P)·d² Gram floats against one tracker's
	// (m + 1)·d². Results are deterministic for a fixed Seed and shard
	// count but DO depend on Shards (each P groups the sites differently);
	// randomized shard protocols use Seed+shardIndex. The session's Config
	// echoes the shard count it runs. 0 or 1 is the single-tracker path;
	// only windowed sessions still reject Shards > 1 with ErrNotShardable
	// (sub-window boundaries are counted per shard).
	Shards int
	// FastIngest switches the matrix protocols that support it (p1, p2,
	// p2small) to the blocked fast ingest mode: batch ingestion folds whole
	// row blocks with rank-k updates and defers the per-site
	// eigendecomposition/merge work to block boundaries. The covariance
	// guarantee holds at every batch boundary and P1's message counts stay
	// identical; see the internal/core IngestMode documentation for the
	// exact contract. Off (byte-identical exact mode) by default.
	FastIngest bool
	// Assigner overrides the session's site assigner. When nil, sessions
	// use NewUniformRandom(Sites, Seed) — the paper's arrival model.
	Assigner Assigner
}

// MaxShards bounds Config.Shards. Every shard is a tracker instance over
// the sites it owns, a tracker never runs more shards than sites nor more
// workers than GOMAXPROCS, so the cap mostly guards the service boundary:
// a Spec arriving over HTTP cannot make one PUT build an unbounded number
// of shard trackers.
const MaxShards = 64

// DefaultConfig returns the configuration every option starts from: one
// site, ε = 0.1, seed 1, one copy, 16-bit quantile universe.
func DefaultConfig() Config {
	return Config{Sites: 1, Epsilon: 0.1, Seed: 1, Copies: 1, Bits: 16}
}

// Option mutates a Config; pass options to NewMatrix, NewHH, NewQuantile,
// or the Session constructors.
type Option func(*Config)

// WithSites sets the number of distributed sites m.
func WithSites(m int) Option { return func(c *Config) { c.Sites = m } }

// WithEpsilon sets the approximation error parameter ε.
func WithEpsilon(eps float64) Option { return func(c *Config) { c.Epsilon = eps } }

// WithDim sets the row dimension d for matrix protocols.
func WithDim(d int) Option { return func(c *Config) { c.Dim = d } }

// WithSeed sets the seed driving protocol and assigner randomness.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithCopies sets the number of independent instances for p4median.
func WithCopies(copies int) Option { return func(c *Config) { c.Copies = copies } }

// WithRank sets the sketch size ℓ for the fd baseline tracker.
func WithRank(ell int) Option { return func(c *Config) { c.Rank = ell } }

// WithBits sets the quantile value-universe exponent.
func WithBits(bits uint) Option { return func(c *Config) { c.Bits = bits } }

// WithWindow makes matrix sessions cover only the most recent ~window rows
// via the tumbling-window construction.
func WithWindow(window int) Option { return func(c *Config) { c.Window = window } }

// WithShards runs the tracker — matrix, heavy-hitters, or quantile — as p
// parallel shards merged at query time (see Config.Shards). For matrix
// sessions, combine with WithFastIngest for the highest-throughput
// configuration: P blocked pipelines across cores.
func WithShards(p int) Option { return func(c *Config) { c.Shards = p } }

// WithExactTracking makes a matrix Session maintain the exact Gram AᵀA for
// evaluation alongside the approximation.
func WithExactTracking() Option { return func(c *Config) { c.TrackExact = true } }

// WithFastIngest switches the matrix protocols that support it to the
// blocked fast ingest mode (see Config.FastIngest).
func WithFastIngest() Option { return func(c *Config) { c.FastIngest = true } }

// WithAssigner overrides the session's site assigner (e.g. NewRoundRobin).
// When Sites was not also set it is adopted from the assigner; an
// explicitly conflicting Sites value is an ErrInvalidConfig.
func WithAssigner(a Assigner) Option { return func(c *Config) { c.Assigner = a } }

// NewConfig applies opts on top of DefaultConfig. It does not validate;
// validation happens in the constructor consuming the Config, which knows
// which fields the chosen protocol needs.
func NewConfig(opts ...Option) Config {
	c := DefaultConfig()
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// fdRank returns the fd baseline's sketch size: Rank when set, otherwise
// ⌈1/ε⌉ so the sketch's deterministic error matches ε.
func (c Config) fdRank() int {
	if c.Rank > 0 {
		return c.Rank
	}
	ell := int(1 / c.Epsilon)
	if float64(ell)*c.Epsilon < 1 {
		ell++
	}
	return ell
}

// validateMatrix checks the fields matrix protocol constructors consume.
func (c Config) validateMatrix() error {
	if err := core.CheckParams(c.Sites, c.Epsilon, c.Dim); err != nil {
		return invalidConfig(err)
	}
	if c.Rank < 0 {
		return invalidConfigf("need rank ≥ 0, got %d", c.Rank)
	}
	if c.Window != 0 {
		if err := core.CheckWindow(c.Window); err != nil {
			return invalidConfig(err)
		}
	}
	if err := c.checkShardRange(); err != nil {
		return err
	}
	if c.Shards > 1 && c.Window > 0 {
		return notShardablef("windowed sessions count sub-window boundaries per shard; drop WithShards or WithWindow")
	}
	return nil
}

// checkShardRange validates the Shards field's numeric range, shared by
// every kind (whether a kind supports sharding at all is its own check).
func (c Config) checkShardRange() error {
	if c.Shards < 0 {
		return invalidConfigf("need shards ≥ 0, got %d", c.Shards)
	}
	if c.Shards > MaxShards {
		return invalidConfigf("need shards ≤ %d, got %d", MaxShards, c.Shards)
	}
	return nil
}

// validateHH checks the fields heavy-hitters protocol constructors consume.
func (c Config) validateHH() error {
	if err := hh.CheckParams(c.Sites, c.Epsilon); err != nil {
		return invalidConfig(err)
	}
	if err := hh.CheckCopies(c.Copies); err != nil {
		return invalidConfig(err)
	}
	return c.checkShardRange()
}

// validateQuantile checks the fields the quantile tracker consumes.
func (c Config) validateQuantile() error {
	if err := quantile.CheckParams(c.Sites, c.Epsilon, c.Bits); err != nil {
		return invalidConfig(err)
	}
	return c.checkShardRange()
}
