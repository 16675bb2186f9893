package quantile

import (
	"fmt"

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
	counts := make(map[uint64]float64, len(q.counts))
	for n, c := range q.counts {
		counts[n] = c
	}
	return QDigestSnapshot{
		Bits: q.bits, Eps: q.eps, Weight: q.weight, Counts: counts,
		CompressAt: q.compressAt,
	}
}

// RestoreQDigest rebuilds a digest from a snapshot.
func RestoreQDigest(snap QDigestSnapshot) (*QDigest, error) {
	if err := CheckDigestParams(snap.Bits, snap.Eps); err != nil {
		return nil, err
	}
	q := &QDigest{
		bits:   snap.Bits,
		eps:    snap.Eps,
		weight: snap.Weight,
		counts: make(map[uint64]float64, len(snap.Counts)),
	}
	maxNode := uint64(1)<<(snap.Bits+1) - 1
	for n, c := range snap.Counts {
		if n < 1 || n > maxNode {
			return nil, fmt.Errorf("quantile: snapshot node %d outside the %d-bit dyadic tree", n, snap.Bits)
		}
		if c < 0 {
			return nil, fmt.Errorf("quantile: snapshot node %d has negative weight %v", n, c)
		}
		q.counts[n] = c
	}
	q.compressAt = snap.CompressAt
	if q.compressAt <= 0 {
		// Pre-CompressAt snapshot: fall back to the post-compression value.
		q.compressAt = 2 * (len(q.counts) + 32)
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
	for i := range t.sites {
		sites[i] = TrackerSiteSnapshot{
			Digest: t.sites[i].digest.Snapshot(),
			Weight: t.sites[i].weight,
		}
	}
	return TrackerSnapshot{
		M: t.m, Eps: t.eps, Bits: t.bits, Sites: sites,
		Merged: t.merged.Snapshot(), Tally: t.tally, What: t.what,
		Stats: t.acct.Stats(),
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
	t.tally = snap.Tally
	t.what = snap.What
	for i, s := range snap.Sites {
		d, err := RestoreQDigest(s.Digest)
		if err != nil {
			return nil, fmt.Errorf("quantile: site %d digest: %w", i, err)
		}
		if d.bits != snap.Bits {
			return nil, fmt.Errorf("quantile: site %d digest over %d bits, tracker over %d", i, d.bits, snap.Bits)
		}
		t.sites[i].digest = d
		t.sites[i].weight = s.Weight
	}
	t.acct.RestoreStats(snap.Stats)
	return t, nil
}

// ShardedTrackerSnapshot is the serializable state of a sharded quantile
// tracker: every shard's full snapshot plus the deal cursor and per-shard
// item tallies, so a restored tracker deals the next block to the same
// shard the saved one would have.
type ShardedTrackerSnapshot struct {
	Shards []TrackerSnapshot
	Next   int
	Items  []int64
}

// SnapshotSharded captures a sharded tracker. It flushes first without
// re-raising shard panics — a poisoned tracker yields an error here, not
// a crashed checkpointer.
func SnapshotSharded(s *Sharded) (ShardedTrackerSnapshot, error) {
	shards, next, items, err := core.SnapshotShards(s.ShardEngine, func(t *Tracker) (TrackerSnapshot, error) {
		return t.Snapshot(), nil
	})
	if err != nil {
		return ShardedTrackerSnapshot{}, fmt.Errorf("quantile: %w", err)
	}
	return ShardedTrackerSnapshot{Shards: shards, Next: next, Items: items}, nil
}

// RestoreSharded rebuilds a sharded tracker from a snapshot, rejecting
// cross-shard parameter disagreement with a wrapped ErrMergeMismatch — the
// merge boundary returns errors rather than letting a corrupted snapshot
// panic the first query.
func RestoreSharded(snap ShardedTrackerSnapshot) (*Sharded, error) {
	s, err := core.RestoreShards(snap.Shards, snap.Next, snap.Items, func(ts TrackerSnapshot) (*Tracker, error) {
		if first := snap.Shards[0]; ts.M != first.M || ts.Eps != first.Eps || ts.Bits != first.Bits {
			return nil, fmt.Errorf("has (m=%d, eps=%v, bits=%d), shard 0 has (m=%d, eps=%v, bits=%d): %w",
				ts.M, ts.Eps, ts.Bits, first.M, first.Eps, first.Bits, ErrMergeMismatch)
		}
		return RestoreTracker(ts)
	}, func(trackers []*Tracker) *Sharded {
		return NewSharded(len(trackers), trackers[0].m, func(i int) *Tracker { return trackers[i] })
	})
	if err != nil {
		return nil, fmt.Errorf("quantile: sharded snapshot: %w", err)
	}
	return s, nil
}
