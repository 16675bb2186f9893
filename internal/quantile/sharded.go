package quantile

import (
	"errors"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// ErrMergeMismatch is the sentinel for shard snapshots whose parameters
// (ε, universe) disagree. It can only arise from a corrupted or
// hand-assembled snapshot — shards built by one builder always agree — so
// RestoreSharded, the one place that checks it, returns it wrapped rather
// than panicking.
var ErrMergeMismatch = errors.New("quantile: digest parameters mismatch")

// Summary is the query surface shared by Tracker and Sharded: everything
// the session facade needs from a quantile tracker, independent of whether
// it runs one instance or a shard fleet.
type Summary interface {
	Eps() float64
	Bits() uint
	Process(site int, value uint64, w float64)
	Quantile(phi float64) uint64
	Quantiles(phis []float64, out []uint64) []uint64
	EstimateTotal() float64
	Stats() stream.Stats
}

// Sharded runs P independent copies of the quantile tracker, each owning a
// fixed set of the m sites: the embedded core.ShardEngine routes site j's
// values to shard j mod P (Deal — which validates sites, weights and,
// through Tracker's core.BoundedUniverse, universe membership for the whole
// batch before anything is enqueued — the flush barrier, failure capture,
// Close, tallies), and rank queries answer from the sum of the shards'
// coordinator digests. Each shard tracks its substream with rank error
// ≤ ε·W_k; absorbing a digest adds both weight and error, and Σ ε·W_k =
// εW, so the summed digest keeps the tracker's εW rank contract. Shard k
// runs over ⌈(m−k)/P⌉ sites, so the summed Stats are about what one
// tracker sends.
//
// Like Tracker, a Sharded instance is driven by one goroutine at a time.
// Queries flush (merge barrier) first; Close stops the shard workers.
type Sharded struct {
	*core.ShardEngine[*Tracker, gen.WeightedItem]
	one [1]gen.WeightedItem // Process's block: Deal copies it before returning
}

// NewSharded builds a sharded quantile tracker for m sites over min(p, m)
// shard trackers produced by build, called once per shard index with the
// shard's site count. All shards must come from the same constructor with
// the same parameters.
func NewSharded(p, m int, build func(shard, sites int) *Tracker) *Sharded {
	return &Sharded{ShardEngine: core.NewShardedItemTracker(p, m, build)}
}

// Eps implements Summary: the summed digest keeps the shard ε (summed
// per-shard bounds telescope to εW).
func (s *Sharded) Eps() float64 { return s.Shard(0).eps }

// Bits implements Summary.
func (s *Sharded) Bits() uint { return s.Shard(0).bits }

// Process implements Summary, dealing one value to the shard workers.
func (s *Sharded) Process(site int, value uint64, w float64) {
	s.one[0] = gen.WeightedItem{Elem: value, Weight: w}
	s.Deal(site, s.one[:])
}

// merged flushes and absorbs every shard's coordinator digest, in shard
// order, into a fresh digest, uncompressed, so a one-shard sum is
// node-identical to the shard's own digest. The shards share one universe:
// builders make them so, and RestoreSharded refuses a snapshot whose
// shards disagree.
func (s *Sharded) merged() *QDigest {
	s.Flush()
	dst := NewQDigest(s.Bits(), s.Eps()/2)
	for i := 0; i < s.ShardCount(); i++ {
		dst.absorb(s.Shard(i).merged)
	}
	return dst
}

// Quantile implements Summary from the merged coordinator digest.
func (s *Sharded) Quantile(phi float64) uint64 { return s.merged().Quantile(phi) }

// Quantiles implements Summary: every φ from one merged coordinator digest.
func (s *Sharded) Quantiles(phis []float64, out []uint64) []uint64 {
	return s.merged().Quantiles(phis, out)
}

// EstimateTotal implements Summary: the shard tallies summed, no digest merged.
func (s *Sharded) EstimateTotal() float64 {
	s.Flush()
	var tally float64
	for i := 0; i < s.ShardCount(); i++ {
		tally += s.Shard(i).rule.Tally
	}
	return tally
}

var (
	_ Summary = (*Tracker)(nil)
	_ Summary = (*Sharded)(nil)
)
