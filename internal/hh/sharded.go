package hh

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sketch"
)

// ErrMergeMismatch is the sentinel for shard snapshots whose parameters
// disagree (different ε). It can only arise from a corrupted or
// hand-assembled snapshot — shards built by one builder always agree — so
// the restore surfaces return it wrapped rather than panicking, keeping a
// daemon restoring a bad checkpoint alive.
var ErrMergeMismatch = errors.New("hh: shard summary parameters mismatch")

// Sharded runs P independent copies of a protocol, each owning a fixed set
// of the m sites: the embedded core.ShardEngine routes site j's items to
// shard j mod P (Deal, the flush barrier, failure capture, Close,
// tallies), and a query answers with the sum of the shards' estimates,
// within Σ ε·W_k = εW as shard k errs by at most ε·W_k. It implements
// Protocol, so everything built on the interface (HeavyHitters, the session
// facade, the service layer) works unchanged. Shard k runs its protocol
// over ⌈(m−k)/P⌉ sites, so its thresholds are about a single tracker's and
// the summed Stats are about what one tracker sends on the same stream.
//
// Like the unsharded protocols, a Sharded tracker is driven by one
// goroutine at a time. Queries flush (merge barrier) first; Close stops
// the shard workers.
type Sharded struct {
	*core.ShardEngine[Protocol, gen.WeightedItem]
	one [1]gen.WeightedItem // Process's block: Deal copies it before returning
}

// NewSharded builds a sharded tracker for m sites over min(p, m) shard
// protocols produced by build, called once per shard index with the
// shard's site count (randomized protocols should derive per-shard seeds
// from the index). All shards must come from the same constructor with the
// same parameters.
func NewSharded(p, m int, build func(shard, sites int) Protocol) *Sharded {
	return &Sharded{ShardEngine: core.NewShardedItemTracker(p, m, build)}
}

// Name implements Protocol: the shard protocol's name (the sharding is an
// execution strategy, not a different protocol).
func (s *Sharded) Name() string { return s.Shard(0).Name() }

// Eps implements Protocol: the summed answer keeps the shard ε (summed
// per-shard bounds telescope to εW).
func (s *Sharded) Eps() float64 { return s.Shard(0).Eps() }

// Process implements Protocol, dealing one item to the shard workers.
func (s *Sharded) Process(site int, elem uint64, w float64) {
	s.one[0] = gen.WeightedItem{Elem: elem, Weight: w}
	s.Deal(site, s.one[:])
}

// estimateMap returns p's coordinator estimate map when p keeps one (P2's
// coordinator, Exact's frequencies), nil otherwise. The caller only reads it.
func estimateMap(p Protocol) map[uint64]float64 {
	switch p := p.(type) {
	case *P2:
		return p.coord.estimate
	case *Exact:
		return p.freq
	}
	return nil
}

// sum flushes and adds every shard's estimates into one map, in shard
// order: a map-keeping shard's map entries directly, any other shard's
// Candidates(−Inf).
func (s *Sharded) sum() map[uint64]float64 {
	s.Flush()
	total := make(map[uint64]float64)
	for i := 0; i < s.ShardCount(); i++ {
		shard := s.Shard(i)
		if est := estimateMap(shard); est != nil {
			for e, w := range est {
				total[e] += w
			}
			continue
		}
		for _, c := range shard.Candidates(math.Inf(-1)) {
			total[c.Elem] += c.Weight
		}
	}
	return total
}

// Estimate implements Protocol: the sum of the shards' estimates.
func (s *Sharded) Estimate(elem uint64) float64 { return s.sum()[elem] }

// EstimateTotal implements Protocol: the shards' Ŵs summed, no estimate
// merged. Each starts from its protocol's initial lower bound (1 for P2):
// the sum overcounts by up to P−1, within the εW slack as that bound is.
func (s *Sharded) EstimateTotal() float64 {
	s.Flush()
	var total float64
	for i := 0; i < s.ShardCount(); i++ {
		total += s.Shard(i).EstimateTotal()
	}
	return total
}

// Candidates implements Protocol from the summed estimates, in the
// canonical weight-desc/elem-asc order.
func (s *Sharded) Candidates(floor float64) []sketch.WeightedElement {
	return candidatesOf(s.sum(), floor)
}

var _ Protocol = (*Sharded)(nil)
