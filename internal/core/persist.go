package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// Checkpoint/restore for the matrix P2 simulator, the paper's headline
// protocol and the one a long-lived deployment hosts. The snapshot is a
// plain exported struct (gob-encodable); a restored instance resumes
// exactly where the snapshot was taken — same site Grams, same deferred-svd
// bounds, same communication tally — preserving the continuous ε‖A‖²_F
// guarantee. The sampling protocols (P3, P4) carry RNG state that cannot be
// re-seeded mid-stream and are not persistable.

// P2SiteSnapshot is the serializable state of one matrix P2 site.
type P2SiteSnapshot struct {
	Gram     []float64 // row-major d×d G_j
	Fdelta   float64
	LamBound float64
	SoleRow  []float64 // nil unless the unsent matrix is exactly one row
	Empty    bool
}

// P2Snapshot is the serializable state of a matrix P2 instance.
type P2Snapshot struct {
	M, D     int
	Eps      float64
	ShipFrac float64
	Fast     bool // true when the instance ran in the blocked fast ingest mode
	Decomps  int64
	Sites    []P2SiteSnapshot
	// Coordinator state.
	Gram      []float64 // row-major d×d BᵀB
	CoordFhat float64
	SiteFhat  float64
	NMsg      int
	Stats     stream.Stats
}

// Snapshot captures one site half's state. F̂ is not part of it: the owner
// records its sites' view once (P2Snapshot.SiteFhat) or per site.
func (s *P2Site) Snapshot() P2SiteSnapshot {
	return P2SiteSnapshot{
		Gram: s.gram.RawData(), Fdelta: s.fdelta, LamBound: s.lamBound,
		SoleRow: append([]float64(nil), s.soleRow...), Empty: s.empty,
	}
}

// Restore overwrites the half's state with a snapshot taken at the same d.
func (s *P2Site) Restore(snap P2SiteSnapshot) error {
	gram, err := restoreGram(s.d, snap.Gram)
	if err != nil {
		return err
	}
	if snap.SoleRow != nil && len(snap.SoleRow) != s.d {
		return fmt.Errorf("core: sole row has %d values for d=%d", len(snap.SoleRow), s.d)
	}
	s.gram, s.fdelta, s.lamBound, s.empty = gram, snap.Fdelta, snap.LamBound, snap.Empty
	s.soleRow = append([]float64(nil), snap.SoleRow...)
	return nil
}

// Snapshot captures the protocol's state: the halves' snapshots under the
// field names the golden checkpoints were written with.
func (p *P2) Snapshot() P2Snapshot {
	sites := make([]P2SiteSnapshot, len(p.sites))
	for i := range p.sites {
		sites[i] = p.sites[i].Snapshot()
	}
	c := p.coord.Snapshot()
	return P2Snapshot{
		M: p.m, D: p.d, Eps: p.eps, ShipFrac: p.sites[0].shipFrac,
		Fast: p.mode == IngestFast, Decomps: p.scratch.decomps,
		Sites: sites, Gram: c.Gram,
		CoordFhat: c.Fhat, SiteFhat: p.sites[0].Estimate(), NMsg: c.NMsg,
		Stats: p.acct.Stats(),
	}
}

// P2CoordinatorSnapshot is the serializable state of a P2Coordinator.
type P2CoordinatorSnapshot struct {
	Gram []float64 // row-major d×d BᵀB
	Fhat float64
	NMsg int
}

// Snapshot captures the coordinator half's state.
func (c *P2Coordinator) Snapshot() P2CoordinatorSnapshot {
	return P2CoordinatorSnapshot{Gram: c.gram.RawData(), Fhat: c.fhat, NMsg: c.nmsg}
}

// Restore overwrites the half's state with a snapshot taken at the same d.
func (c *P2Coordinator) Restore(snap P2CoordinatorSnapshot) error {
	gram, err := restoreGram(c.Dim(), snap.Gram)
	if err != nil {
		return err
	}
	c.gram, c.fhat, c.nmsg = gram, snap.Fhat, snap.NMsg
	return nil
}

// restoreGram adopts a snapshot's row-major d×d values bit for bit: the
// deferred-svd bounds must see exactly the matrices the saved half held.
func restoreGram(d int, data []float64) (*matrix.Sym, error) {
	if len(data) != d*d {
		return nil, fmt.Errorf("core: snapshot Gram has %d values for d=%d", len(data), d)
	}
	return matrix.SymFromRaw(d, data), nil
}

// ShardedP2Snapshot is the serializable state of a ShardedTracker whose
// shards are matrix P2 instances — the persistable sharded configuration.
// One P2Snapshot per shard, in shard order; the deal cursor is the only
// other state the wrapper carries, so a restored tracker deals the next
// block to the same shard the saved one would have.
type ShardedP2Snapshot struct {
	Shards []P2Snapshot
	Next   int     // round-robin deal cursor
	Rows   []int64 // rows dealt per shard (observability tally)
}

// SnapshotableP2 reports whether SnapshotShardedP2 can serialize this
// tracker: every shard must be a matrix P2 instance.
func (st *ShardedTracker) SnapshotableP2() bool {
	for _, tr := range st.shards {
		if _, ok := tr.(*P2); !ok {
			return false
		}
	}
	return true
}

// SnapshotShardedP2 captures the tracker's state after flushing all
// in-flight blocks. It fails if any shard is not a matrix P2 instance, and
// reports a shard worker's terminal failure as an error rather than a
// panic, so a background checkpointer survives a poisoned tracker.
func (st *ShardedTracker) SnapshotShardedP2() (ShardedP2Snapshot, error) {
	shards, next, rows, err := SnapshotShards(st.ShardEngine, func(tr Tracker) (P2Snapshot, error) {
		p2, ok := tr.(*P2)
		if !ok {
			return P2Snapshot{}, fmt.Errorf("%T is not a persistable *P2", tr)
		}
		return p2.Snapshot(), nil
	})
	if err != nil {
		return ShardedP2Snapshot{}, fmt.Errorf("core: sharded snapshot: %w", err)
	}
	return ShardedP2Snapshot{Shards: shards, Next: next, Rows: rows}, nil
}

// RestoreShardedP2 rebuilds a sharded matrix P2 tracker from a snapshot and
// starts its workers. The restored tracker answers every query identically
// to the saved one and resumes dealing at the saved cursor. Shards must
// agree on (m, ε, d) — always true of registry-built sharded trackers; the
// checks reject corrupt checkpoints with an error instead of a downstream
// panic (disagreeing dimensions panic the constructor, disagreeing site
// counts poison the first cross-shard deal) or a silently mixed guarantee.
func RestoreShardedP2(snap ShardedP2Snapshot) (*ShardedTracker, error) {
	st, err := RestoreShards(snap.Shards, snap.Next, snap.Rows, func(s P2Snapshot) (Tracker, error) {
		if first := snap.Shards[0]; s.D != first.D || s.M != first.M || s.Eps != first.Eps {
			return nil, fmt.Errorf("has (m=%d, ε=%v, d=%d), shard 0 has (m=%d, ε=%v, d=%d)",
				s.M, s.Eps, s.D, first.M, first.Eps, first.D)
		}
		return RestoreP2(s)
	}, newShardedFromTrackers)
	if err != nil {
		return nil, fmt.Errorf("core: sharded snapshot: %w", err)
	}
	return st, nil
}

// RestoreP2 rebuilds a matrix P2 instance from a snapshot.
func RestoreP2(snap P2Snapshot) (*P2, error) {
	if err := CheckParams(snap.M, snap.Eps, snap.D); err != nil {
		return nil, err
	}
	if snap.ShipFrac <= 0 || snap.ShipFrac > 1 {
		return nil, fmt.Errorf("core: snapshot ship fraction %v outside (0, 1]", snap.ShipFrac)
	}
	if len(snap.Sites) != snap.M {
		return nil, fmt.Errorf("core: snapshot has %d sites for m=%d", len(snap.Sites), snap.M)
	}
	p := NewP2ShipFraction(snap.M, snap.Eps, snap.D, snap.ShipFrac)
	if snap.Fast {
		p.mode = IngestFast
	}
	coord := P2CoordinatorSnapshot{Gram: snap.Gram, Fhat: snap.CoordFhat, NMsg: snap.NMsg} //distlint:alias-ok a view for Restore, which copies
	if err := p.coord.Restore(coord); err != nil {
		return nil, err
	}
	p.scratch.decomps = snap.Decomps
	for i, s := range snap.Sites {
		if err := p.sites[i].Restore(s); err != nil {
			return nil, fmt.Errorf("core: site %d: %w", i, err)
		}
		p.sites[i].SetEstimate(snap.SiteFhat)
	}
	p.acct.RestoreStats(snap.Stats)
	return p, nil
}
