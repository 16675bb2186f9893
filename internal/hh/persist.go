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

// Snapshot captures a site half (Ŵ is the owner's to record).
func (s *P2Site) Snapshot() P2SiteSnapshot {
	return P2SiteSnapshot{Weight: s.weight, Delta: cloneWeights(s.delta)}
}

// Restore overwrites a site half's state with a snapshot.
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

// Snapshot captures the protocol's state — the halves' snapshots under the
// golden checkpoints' field names.
func (p *P2) Snapshot() P2Snapshot {
	sites := make([]P2SiteSnapshot, len(p.sites))
	for i := range p.sites {
		sites[i] = p.sites[i].Snapshot()
	}
	c := p.coord.Snapshot()
	return P2Snapshot{
		M: p.m, Eps: p.eps, Sites: sites,
		CoordWhat: c.What, SiteWhat: p.sites[0].Estimate(), NMsg: c.NMsg,
		Estimate: c.Estimate, Stats: p.acct.Stats(),
	}
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
// every shard's full snapshot, the tracker's site count and the per-shard
// item tallies. M = 0 means Shards[0].M, as in every checkpoint written
// before shards owned sites (core.SnapshotShards).
type ShardedP2Snapshot struct {
	Shards []P2Snapshot
	M      int
	Items  []int64
}

// SnapshotSharded captures a sharded P2 tracker. It flushes first (without
// re-raising shard panics — a poisoned tracker yields an error here, not a
// crashed checkpointer) and errors unless every shard is a P2 instance.
func SnapshotSharded(s *Sharded) (ShardedP2Snapshot, error) {
	shards, m, items, err := core.SnapshotShards(s.ShardEngine, func(p Protocol) (P2Snapshot, error) {
		p2, ok := p.(*P2)
		if !ok {
			return P2Snapshot{}, fmt.Errorf("%s is not a persistable P2", p.Name())
		}
		return p2.Snapshot(), nil
	}, p2Sites)
	if err != nil {
		return ShardedP2Snapshot{}, fmt.Errorf("hh: %w", err)
	}
	return ShardedP2Snapshot{Shards: shards, M: m, Items: items}, nil
}

func p2Sites(s P2Snapshot) int       { return s.M }
func exactSites(s ExactSnapshot) int { return s.M }

// shardedOver wires restored shard protocols back into an engine over m
// sites.
func shardedOver(m int, protos []Protocol) *Sharded {
	return &Sharded{ShardEngine: core.ItemEngine(m, protos)}
}

// RestoreSharded rebuilds a sharded P2 tracker from a snapshot, rejecting
// cross-shard parameter disagreement with a wrapped ErrMergeMismatch: a
// corrupted snapshot is an error here, so the summed answer never meets
// shards that disagree.
func RestoreSharded(snap ShardedP2Snapshot) (*Sharded, error) {
	s, err := core.RestoreShards(snap.Shards, snap.M, snap.Items, p2Sites, func(ss P2Snapshot) (Protocol, error) {
		if first := snap.Shards[0]; ss.Eps != first.Eps {
			return nil, fmt.Errorf("has eps=%v, shard 0 has eps=%v: %w", ss.Eps, first.Eps, ErrMergeMismatch)
		}
		return RestoreP2(ss)
	}, shardedOver)
	if err != nil {
		return nil, fmt.Errorf("hh: sharded snapshot: %w", err)
	}
	return s, nil
}

// ShardedExactSnapshot is the serializable state of a sharded exact
// tracker (shard snapshots, site count and tallies, as for
// ShardedP2Snapshot).
type ShardedExactSnapshot struct {
	Shards []ExactSnapshot
	M      int
	Items  []int64
}

// SnapshotShardedExact captures a sharded exact tracker, flushing first
// without re-raising shard panics.
func SnapshotShardedExact(s *Sharded) (ShardedExactSnapshot, error) {
	shards, m, items, err := core.SnapshotShards(s.ShardEngine, func(p Protocol) (ExactSnapshot, error) {
		ex, ok := p.(*Exact)
		if !ok {
			return ExactSnapshot{}, fmt.Errorf("%s is not an exact tracker", p.Name())
		}
		return ex.Snapshot(), nil
	}, exactSites)
	if err != nil {
		return ShardedExactSnapshot{}, fmt.Errorf("hh: %w", err)
	}
	return ShardedExactSnapshot{Shards: shards, M: m, Items: items}, nil
}

// RestoreShardedExact rebuilds a sharded exact tracker from a snapshot.
func RestoreShardedExact(snap ShardedExactSnapshot) (*Sharded, error) {
	s, err := core.RestoreShards(snap.Shards, snap.M, snap.Items, exactSites, func(ss ExactSnapshot) (Protocol, error) {
		return RestoreExact(ss)
	}, shardedOver)
	if err != nil {
		return nil, fmt.Errorf("hh: sharded snapshot: %w", err)
	}
	return s, nil
}
