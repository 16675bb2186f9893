package hh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// Checkpoint/restore for the single-process protocol simulators. Snapshots
// are plain exported structs (gob-encodable); a restored protocol resumes
// exactly where the snapshot was taken — same estimates, same thresholds,
// same communication tally — preserving the continuous εW guarantee.
// Deterministic protocols only: the sampling protocols (P3, P4) carry RNG
// state that cannot be re-seeded mid-stream, so they are not persistable.

// P2SiteSnapshot is the serializable state of one P2 site.
type P2SiteSnapshot struct {
	Weight float64
	Delta  map[uint64]float64
}

// P2Snapshot is the serializable state of a heavy-hitters P2 instance.
type P2Snapshot struct {
	M     int
	Eps   float64
	Sites []P2SiteSnapshot
	// Coordinator state.
	CoordWhat float64
	SiteWhat  float64
	NMsg      int
	Estimate  map[uint64]float64
	Stats     stream.Stats
}

// P2CoordinatorSnapshot is the serializable state of a P2Coordinator.
type P2CoordinatorSnapshot struct {
	What     float64
	NMsg     int
	Estimate map[uint64]float64
}

func cloneWeights(m map[uint64]float64) map[uint64]float64 {
	out := make(map[uint64]float64, len(m))
	for e, w := range m {
		out[e] = w
	}
	return out
}

// Snapshot captures an exact-delta site half (Ŵ is the owner's to record).
func (s *P2Site) Snapshot() P2SiteSnapshot {
	return P2SiteSnapshot{Weight: s.weight, Delta: cloneWeights(s.delta)}
}

// Restore overwrites an exact-delta half's state with a snapshot.
func (s *P2Site) Restore(snap P2SiteSnapshot) {
	s.weight, s.delta = snap.Weight, cloneWeights(snap.Delta)
}

// Snapshot captures the coordinator half's state.
func (c *P2Coordinator) Snapshot() P2CoordinatorSnapshot {
	return P2CoordinatorSnapshot{What: c.what, NMsg: c.nmsg, Estimate: cloneWeights(c.estimate)}
}

// Restore overwrites the half's state with a snapshot.
func (c *P2Coordinator) Restore(snap P2CoordinatorSnapshot) {
	c.what, c.nmsg, c.estimate = snap.What, snap.NMsg, cloneWeights(snap.Estimate)
}

// Snapshotable reports whether Snapshot can serialize this instance: true
// for the exact-delta P2, false for the SpaceSaving site-space variant,
// whose bounded summaries are not snapshot-stable.
func (p *P2) Snapshotable() bool { return p.sites[0].ss == nil }

// Snapshot captures the protocol's state — the halves' snapshots under the
// golden checkpoints' field names. It errors on the SpaceSaving variant.
func (p *P2) Snapshot() (P2Snapshot, error) {
	if !p.Snapshotable() {
		return P2Snapshot{}, fmt.Errorf("hh: the SpaceSaving P2 variant is not persistable")
	}
	sites := make([]P2SiteSnapshot, len(p.sites))
	for i := range p.sites {
		sites[i] = p.sites[i].Snapshot()
	}
	c := p.coord.Snapshot()
	return P2Snapshot{
		M: p.m, Eps: p.eps, Sites: sites,
		CoordWhat: c.What, SiteWhat: p.sites[0].Estimate(), NMsg: c.NMsg,
		Estimate: c.Estimate, Stats: p.acct.Stats(),
	}, nil
}

// RestoreP2 rebuilds a heavy-hitters P2 instance from a snapshot.
func RestoreP2(snap P2Snapshot) (*P2, error) {
	if err := CheckParams(snap.M, snap.Eps); err != nil {
		return nil, err
	}
	if len(snap.Sites) != snap.M {
		return nil, fmt.Errorf("hh: snapshot has %d sites for m=%d", len(snap.Sites), snap.M)
	}
	p := NewP2(snap.M, snap.Eps)
	p.coord.Restore(P2CoordinatorSnapshot{What: snap.CoordWhat, NMsg: snap.NMsg, Estimate: snap.Estimate}) //distlint:alias-ok a view for Restore, which copies
	for i, s := range snap.Sites {
		p.sites[i].Restore(s)
		p.sites[i].SetEstimate(snap.SiteWhat)
	}
	p.acct.RestoreStats(snap.Stats)
	return p, nil
}

// ExactSnapshot is the serializable state of the exact tracker.
type ExactSnapshot struct {
	M     int
	Freq  map[uint64]float64
	Total float64
	Stats stream.Stats
}

// Snapshot captures the tracker's state.
func (e *Exact) Snapshot() ExactSnapshot {
	return ExactSnapshot{M: e.m, Freq: cloneWeights(e.freq), Total: e.total, Stats: e.acct.Stats()}
}

// RestoreExact rebuilds an exact tracker from a snapshot.
func RestoreExact(snap ExactSnapshot) (*Exact, error) {
	if err := stream.CheckSites(snap.M); err != nil {
		return nil, fmt.Errorf("hh: %w", err)
	}
	e := NewExact(snap.M)
	e.freq = cloneWeights(snap.Freq)
	e.total = snap.Total
	e.acct.RestoreStats(snap.Stats)
	return e, nil
}

// ShardedP2Snapshot is the serializable state of a sharded P2 tracker:
// every shard's full snapshot plus the deal cursor and per-shard item
// tallies, so a restored tracker deals the next block to the same shard
// the saved one would have.
type ShardedP2Snapshot struct {
	Shards []P2Snapshot
	Next   int
	Items  []int64
}

// SnapshotSharded captures a sharded P2 tracker. It flushes first (without
// re-raising shard panics — a poisoned tracker yields an error here, not a
// crashed checkpointer) and errors unless every shard is a snapshotable
// P2 instance.
func SnapshotSharded(s *Sharded) (ShardedP2Snapshot, error) {
	shards, next, items, err := core.SnapshotShards(s.ShardEngine, func(p Protocol) (P2Snapshot, error) {
		p2, ok := p.(*P2)
		if !ok {
			return P2Snapshot{}, fmt.Errorf("%s is not a persistable P2", p.Name())
		}
		return p2.Snapshot()
	})
	if err != nil {
		return ShardedP2Snapshot{}, fmt.Errorf("hh: %w", err)
	}
	return ShardedP2Snapshot{Shards: shards, Next: next, Items: items}, nil
}

// shardedOver wires restored shard protocols back into a deal engine.
func shardedOver(m int, protos []Protocol) *Sharded {
	return NewSharded(len(protos), m, func(i int) Protocol { return protos[i] })
}

// RestoreSharded rebuilds a sharded P2 tracker from a snapshot, rejecting
// cross-shard parameter disagreement with a wrapped ErrMergeMismatch — the
// merge boundary returns errors rather than letting a corrupted snapshot
// panic the first query.
func RestoreSharded(snap ShardedP2Snapshot) (*Sharded, error) {
	s, err := core.RestoreShards(snap.Shards, snap.Next, snap.Items, func(ss P2Snapshot) (Protocol, error) {
		if first := snap.Shards[0]; ss.M != first.M || ss.Eps != first.Eps {
			return nil, fmt.Errorf("has (m=%d, eps=%v), shard 0 has (m=%d, eps=%v): %w",
				ss.M, ss.Eps, first.M, first.Eps, ErrMergeMismatch)
		}
		return RestoreP2(ss)
	}, func(protos []Protocol) *Sharded { return shardedOver(snap.Shards[0].M, protos) })
	if err != nil {
		return nil, fmt.Errorf("hh: sharded snapshot: %w", err)
	}
	return s, nil
}

// ShardedExactSnapshot is the serializable state of a sharded exact
// tracker (shard snapshots + deal cursor, as for ShardedP2Snapshot).
type ShardedExactSnapshot struct {
	Shards []ExactSnapshot
	Next   int
	Items  []int64
}

// SnapshotShardedExact captures a sharded exact tracker, flushing first
// without re-raising shard panics.
func SnapshotShardedExact(s *Sharded) (ShardedExactSnapshot, error) {
	shards, next, items, err := core.SnapshotShards(s.ShardEngine, func(p Protocol) (ExactSnapshot, error) {
		ex, ok := p.(*Exact)
		if !ok {
			return ExactSnapshot{}, fmt.Errorf("%s is not an exact tracker", p.Name())
		}
		return ex.Snapshot(), nil
	})
	if err != nil {
		return ShardedExactSnapshot{}, fmt.Errorf("hh: %w", err)
	}
	return ShardedExactSnapshot{Shards: shards, Next: next, Items: items}, nil
}

// RestoreShardedExact rebuilds a sharded exact tracker from a snapshot.
func RestoreShardedExact(snap ShardedExactSnapshot) (*Sharded, error) {
	s, err := core.RestoreShards(snap.Shards, snap.Next, snap.Items, func(ss ExactSnapshot) (Protocol, error) {
		if first := snap.Shards[0]; ss.M != first.M {
			return nil, fmt.Errorf("has m=%d, shard 0 has m=%d: %w", ss.M, first.M, ErrMergeMismatch)
		}
		return RestoreExact(ss)
	}, func(protos []Protocol) *Sharded { return shardedOver(snap.Shards[0].M, protos) })
	if err != nil {
		return nil, fmt.Errorf("hh: sharded snapshot: %w", err)
	}
	return s, nil
}
