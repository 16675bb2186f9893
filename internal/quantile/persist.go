package quantile

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/stream"
)

// Checkpoint/restore for the quantile summary and tracker. Snapshots are
// plain exported structs (gob/JSON-encodable); a restored tracker resumes
// exactly where the snapshot was taken, preserving the continuous εW rank
// guarantee and the communication tally.

// QDigestSnapshot is the serializable state of a QDigest. CompressAt is
// part of the state: the deferred-compression schedule must resume exactly
// where it was, or a restored digest's structure drifts from the live one
// on further ingestion.
type QDigestSnapshot struct {
	Bits       uint
	Eps        float64
	Weight     float64
	Counts     map[uint64]float64
	CompressAt int
}

// Snapshot captures the digest's state.
func (q *QDigest) Snapshot() QDigestSnapshot {
	counts := make(map[uint64]float64, q.Size())
	for _, nd := range q.nodes {
		counts[nd.id] = nd.w
	}
	for n, c := range q.fresh {
		counts[n] = c
	}
	return QDigestSnapshot{
		Bits: q.bits, Eps: q.eps, Weight: q.weight, Counts: counts,
		CompressAt: q.compressAt,
	}
}

// RestoreQDigest rebuilds a digest from a snapshot. A node outside the
// tree, a negative or non-finite node weight, and a negative or non-finite
// total are errors: any of them would poison every later answer.
func RestoreQDigest(snap QDigestSnapshot) (*QDigest, error) {
	if err := CheckDigestParams(snap.Bits, snap.Eps); err != nil {
		return nil, err
	}
	if snap.Weight < 0 || math.IsNaN(snap.Weight) || math.IsInf(snap.Weight, 0) {
		return nil, fmt.Errorf("quantile: snapshot total weight %v is not a finite non-negative number", snap.Weight)
	}
	q := &QDigest{
		bits:   snap.Bits,
		eps:    snap.Eps,
		weight: snap.Weight,
		nodes:  make([]node, 0, len(snap.Counts)),
		fresh:  make(map[uint64]float64),
	}
	maxNode := uint64(1)<<(snap.Bits+1) - 1
	for n, c := range snap.Counts {
		if n < 1 || n > maxNode {
			return nil, fmt.Errorf("quantile: snapshot node %d outside the %d-bit dyadic tree", n, snap.Bits)
		}
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("quantile: snapshot node %d has weight %v, want finite and non-negative", n, c)
		}
		q.nodes = append(q.nodes, node{n, c})
	}
	slices.SortFunc(q.nodes, byID)
	q.compressAt = snap.CompressAt
	if q.compressAt <= 0 {
		// Pre-CompressAt snapshot: fall back to the post-compression value.
		q.compressAt = 2 * (len(q.nodes) + 32)
	}
	return q, nil
}

// TrackerSiteSnapshot is the serializable state of one tracked site.
type TrackerSiteSnapshot struct {
	Digest QDigestSnapshot
	Weight float64
}

// TrackerSnapshot is the serializable state of a Tracker.
type TrackerSnapshot struct {
	M     int
	Eps   float64
	Bits  uint
	Sites []TrackerSiteSnapshot
	// Coordinator state.
	Merged QDigestSnapshot
	Tally  float64
	What   float64
	Stats  stream.Stats
}

// Snapshot captures the tracker's state.
func (t *Tracker) Snapshot() TrackerSnapshot {
	sites := make([]TrackerSiteSnapshot, len(t.sites))
	for i, d := range t.sites {
		sites[i] = TrackerSiteSnapshot{Digest: d.Snapshot(), Weight: t.rule.Mass[i]}
	}
	return TrackerSnapshot{
		M: t.m, Eps: t.eps, Bits: t.bits, Sites: sites,
		Merged: t.merged.Snapshot(), Tally: t.rule.Tally, What: t.rule.What,
		Stats: t.rule.Acct.Stats(),
	}
}

// RestoreTracker rebuilds a tracker from a snapshot.
func RestoreTracker(snap TrackerSnapshot) (*Tracker, error) {
	if err := CheckParams(snap.M, snap.Eps, snap.Bits); err != nil {
		return nil, err
	}
	if len(snap.Sites) != snap.M {
		return nil, fmt.Errorf("quantile: snapshot has %d sites for m=%d", len(snap.Sites), snap.M)
	}
	t := NewTracker(snap.M, snap.Eps, snap.Bits)
	merged, err := RestoreQDigest(snap.Merged)
	if err != nil {
		return nil, fmt.Errorf("quantile: coordinator digest: %w", err)
	}
	if merged.bits != snap.Bits {
		return nil, fmt.Errorf("quantile: coordinator digest over %d bits, tracker over %d", merged.bits, snap.Bits)
	}
	t.merged = merged
	t.rule.Tally, t.rule.What = snap.Tally, snap.What
	for i, s := range snap.Sites {
		d, err := RestoreQDigest(s.Digest)
		if err != nil {
			return nil, fmt.Errorf("quantile: site %d digest: %w", i, err)
		}
		if d.bits != snap.Bits {
			return nil, fmt.Errorf("quantile: site %d digest over %d bits, tracker over %d", i, d.bits, snap.Bits)
		}
		t.sites[i], t.rule.Mass[i] = d, s.Weight
	}
	t.rule.Acct.RestoreStats(snap.Stats)
	return t, nil
}

// ShardedTrackerSnapshot is the serializable state of a sharded quantile
// tracker: every shard's full snapshot, the tracker's site count and the
// per-shard item tallies. M = 0 means Shards[0].M, as in every checkpoint
// written before shards owned sites (core.SnapshotShards).
type ShardedTrackerSnapshot struct {
	Shards []TrackerSnapshot
	M      int
	Items  []int64
}

func trackerSites(s TrackerSnapshot) int { return s.M }

// SnapshotSharded captures a sharded tracker. It flushes first without
// re-raising shard panics — a poisoned tracker yields an error here, not
// a crashed checkpointer.
func SnapshotSharded(s *Sharded) (ShardedTrackerSnapshot, error) {
	shards, m, items, err := core.SnapshotShards(s.ShardEngine, func(t *Tracker) (TrackerSnapshot, error) {
		return t.Snapshot(), nil
	}, trackerSites)
	if err != nil {
		return ShardedTrackerSnapshot{}, fmt.Errorf("quantile: %w", err)
	}
	return ShardedTrackerSnapshot{Shards: shards, M: m, Items: items}, nil
}

// RestoreSharded rebuilds a sharded tracker from a snapshot, rejecting
// cross-shard parameter disagreement with a wrapped ErrMergeMismatch: a
// corrupted snapshot is an error here, so the summed answer never meets
// shards that disagree.
func RestoreSharded(snap ShardedTrackerSnapshot) (*Sharded, error) {
	s, err := core.RestoreShards(snap.Shards, snap.M, snap.Items, trackerSites, func(ts TrackerSnapshot) (*Tracker, error) {
		if first := snap.Shards[0]; ts.Eps != first.Eps || ts.Bits != first.Bits {
			return nil, fmt.Errorf("has (eps=%v, bits=%d), shard 0 has (eps=%v, bits=%d): %w",
				ts.Eps, ts.Bits, first.Eps, first.Bits, ErrMergeMismatch)
		}
		return RestoreTracker(ts)
	}, func(m int, trackers []*Tracker) *Sharded {
		return &Sharded{ShardEngine: core.ItemEngine(m, trackers)}
	})
	if err != nil {
		return nil, fmt.Errorf("quantile: sharded snapshot: %w", err)
	}
	return s, nil
}
