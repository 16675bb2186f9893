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

// Snapshot captures the protocol's state.
func (p *P2) Snapshot() P2Snapshot {
	sites := make([]P2SiteSnapshot, len(p.sites))
	for i := range p.sites {
		s := &p.sites[i]
		var sole []float64
		if s.soleRow != nil {
			sole = append(sole, s.soleRow...)
		}
		sites[i] = P2SiteSnapshot{
			Gram: s.gram.RawData(), Fdelta: s.fdelta, LamBound: s.lamBound,
			SoleRow: sole, Empty: s.empty,
		}
	}
	return P2Snapshot{
		M: p.m, D: p.d, Eps: p.eps, ShipFrac: p.shipFrac,
		Fast: p.mode == IngestFast, Decomps: p.decomps,
		Sites: sites, Gram: p.gram.RawData(),
		CoordFhat: p.coordFhat, SiteFhat: p.siteFhat, NMsg: p.nmsg,
		Stats: p.acct.Stats(),
	}
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
	restoreGram := func(data []float64) (*matrix.Sym, error) {
		if len(data) != snap.D*snap.D {
			return nil, fmt.Errorf("core: snapshot Gram has %d values for d=%d", len(data), snap.D)
		}
		// Bit-exact adoption: the deferred-svd bounds must see exactly the
		// matrices the saved instance held.
		return matrix.SymFromRaw(snap.D, data), nil
	}
	p := NewP2ShipFraction(snap.M, snap.Eps, snap.D, snap.ShipFrac)
	if snap.Fast {
		p.mode = IngestFast
	}
	gram, err := restoreGram(snap.Gram)
	if err != nil {
		return nil, err
	}
	p.gram = gram
	p.coordFhat = snap.CoordFhat
	p.siteFhat = snap.SiteFhat
	p.nmsg = snap.NMsg
	p.decomps = snap.Decomps
	for i, s := range snap.Sites {
		g, err := restoreGram(s.Gram)
		if err != nil {
			return nil, fmt.Errorf("core: site %d: %w", i, err)
		}
		if s.SoleRow != nil && len(s.SoleRow) != snap.D {
			return nil, fmt.Errorf("core: site %d sole row has %d values for d=%d", i, len(s.SoleRow), snap.D)
		}
		p.sites[i].gram = g
		p.sites[i].fdelta = s.Fdelta
		p.sites[i].lamBound = s.LamBound
		p.sites[i].soleRow = append([]float64(nil), s.SoleRow...)
		if s.SoleRow == nil {
			p.sites[i].soleRow = nil
		}
		p.sites[i].empty = s.Empty
	}
	p.acct.RestoreStats(snap.Stats)
	return p, nil
}
