package quantile

import (
	"errors"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// ErrMergeMismatch is the sentinel for digests whose universes disagree at
// a tracker-level merge boundary. It can only arise from a corrupted or
// hand-assembled snapshot — shards built by one builder always agree — so
// the merge surfaces return it wrapped rather than panicking.
var ErrMergeMismatch = errors.New("quantile: digest parameters mismatch")

// Summary is the query surface shared by Tracker and Sharded: everything
// the session facade needs from a quantile tracker, independent of whether
// it runs one instance or a shard fleet.
type Summary interface {
	Eps() float64
	Bits() uint
	Process(site int, value uint64, w float64)
	Quantile(phi float64) uint64
	EstimateTotal() float64
	Stats() stream.Stats
}

// Sharded runs P independent copies of the quantile tracker: the embedded
// core.ShardEngine deals the stream across them (Deal — which validates
// sites, weights and, through Tracker's core.BoundedUniverse, universe
// membership for the whole batch before anything is enqueued — the flush
// barrier, failure capture, Close, tallies), and rank queries answer from the merged coordinator digest.
// Each shard tracks its substream with rank error ≤ ε·W_k; q-digest
// accumulation adds both weight and error, and Σ ε·W_k = εW — so the merged
// view keeps the tracker's εW rank contract. Communication tallies sum over
// shards, so Stats can grow by up to a factor of P versus one tracker.
//
// Like Tracker, a Sharded instance is driven by one goroutine at a time.
// Queries flush (merge barrier) first; Close stops the shard workers.
type Sharded struct {
	*core.ShardEngine[*Tracker, gen.WeightedItem]
}

// NewSharded builds a sharded quantile tracker over p shard trackers for m
// sites, produced by build (called once per shard index). All shards must
// come from the same constructor with the same parameters.
func NewSharded(p, m int, build func(shard int) *Tracker) *Sharded {
	return &Sharded{core.NewShardedItemTracker(p, m, build)}
}

// Eps implements Summary: the merged view keeps the shard ε (summed
// per-shard bounds telescope to εW).
func (s *Sharded) Eps() float64 { return s.Shard(0).eps }

// Bits implements Summary.
func (s *Sharded) Bits() uint { return s.Shard(0).bits }

// Process implements Summary, dealing one value to the shard workers.
func (s *Sharded) Process(site int, value uint64, w float64) {
	s.Deal(site, []gen.WeightedItem{{Elem: value, Weight: w}})
}

// merged flushes and folds every shard's coordinator digest into a fresh
// uncompressed accumulation digest. A universe mismatch is impossible for
// builder-constructed shards and rejected during snapshot restore, so a
// failure here is a program bug and panics with the wrapped error.
func (s *Sharded) merged() (*QDigest, float64) {
	s.Flush()
	dst := NewQDigest(s.Bits(), s.Eps()/2)
	var tally float64
	for i := 0; i < s.ShardCount(); i++ {
		tl, err := s.Shard(i).AccumulateInto(dst)
		if err != nil {
			panic(err)
		}
		tally += tl
	}
	return dst, tally
}

// Quantile implements Summary from the merged coordinator digest.
func (s *Sharded) Quantile(phi float64) uint64 {
	dst, _ := s.merged()
	return dst.Quantile(phi)
}

// EstimateTotal implements Summary: the summed shard tallies.
func (s *Sharded) EstimateTotal() float64 {
	_, tally := s.merged()
	return tally
}

var (
	_ Summary = (*Tracker)(nil)
	_ Summary = (*Sharded)(nil)
)
