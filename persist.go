package distmat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/hh"
	"repro/internal/matrix"
	"repro/internal/quantile"
	"repro/internal/stream"
)

// Session checkpointing: SaveState serializes a session to a gob stream and
// RestoreSession rebuilds it, resuming the continuous guarantee exactly
// where the snapshot was taken — same estimates, same site thresholds, same
// communication tally, same assigner position. This is the substrate of
// internal/service's checkpointed recovery; any at-least-once ingestion
// pipeline can use it directly. The same determinism is what makes the
// service's write-ahead log replayable: a persistable session fed the
// identical batch sequence (restore, then re-apply the logged records in
// LSN order) reconverges to the identical state, which the recovery
// tests verify with StateEqual against a never-crashed oracle.
//
// Persistable sessions are the deterministic ones: matrix "p2",
// heavy-hitters "p2" and "exact", and quantile sessions — each sharded or
// not (a sharded session snapshots every shard plus the site count and
// per-shard tallies) — with the default (uniform random) or
// round-robin assigner. Randomized protocols (p3, p4, ...), windowed
// trackers, wrapped custom trackers, and custom Assigner implementations
// carry state that cannot be re-seeded mid-stream; SaveState reports them
// as ErrNotPersistable.

// sessionStateVersion guards the on-disk layout.
const sessionStateVersion = 1

// Assigner discriminators persisted in sessionState.
const (
	asgUniform    = "uniform"
	asgRoundRobin = "roundrobin"
)

// sessionState is the gob payload of a saved session.
type sessionState struct {
	Version int
	Kind    string
	Proto   string

	// Config echo (Assigner is reconstructed from the fields below).
	Sites      int
	Epsilon    float64
	Dim        int
	Seed       int64
	Copies     int
	Rank       int
	Bits       uint
	TrackExact bool
	FastIngest bool
	Shards     int

	Count int64
	Draws int64 // assigner draws, replayed on restore

	AssignerKind string
	AssignerSeed int64

	Exact   []float64 // row-major d×d exact Gram, when TrackExact
	Tracker any       // one of the registered tracker snapshot types
}

func init() {
	gob.Register(core.P2Snapshot{})
	gob.Register(core.P2CoordinatorSnapshot{})
	gob.Register(core.ShardedP2Snapshot{})
	gob.Register(hh.P2Snapshot{})
	gob.Register(hh.ExactSnapshot{})
	gob.Register(hh.ShardedP2Snapshot{})
	gob.Register(hh.ShardedExactSnapshot{})
	gob.Register(quantile.TrackerSnapshot{})
	gob.Register(quantile.ShardedTrackerSnapshot{})
}

// notPersistable wraps a reason in ErrNotPersistable.
func notPersistable(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotPersistable, fmt.Sprintf(format, args...))
}

// Persistable reports whether SaveState can serialize this session — the
// same tracker and assigner checks SaveState performs, without building or
// encoding any state, so callers can probe cheaply at construction time.
// A nil result means persistable; otherwise the ErrNotPersistable explains
// why.
func (s *Session) Persistable() error {
	if _, err := s.snapshotter(); err != nil {
		return err
	}
	_, _, err := s.assignerState()
	return err
}

// snapshotter decides whether the session's tracker can be serialized:
// it returns the function that captures the tracker's state, or
// ErrNotPersistable. It captures nothing itself.
func (s *Session) snapshotter() (func() (any, error), error) {
	switch s.kind {
	case matrixKind:
		switch t := s.mat.(type) {
		case *core.P2:
			return func() (any, error) { return t.Snapshot(), nil }, nil
		case *core.P2Coordinator:
			return func() (any, error) { return t.Snapshot(), nil }, nil
		case *core.ShardedTracker:
			if t.SnapshotableP2() {
				return func() (any, error) { return captured(t.SnapshotShardedP2()) }, nil
			}
			return nil, notPersistable("sharded matrix tracker %q has no snapshot support (persistable shards: p2)", s.proto)
		}
		return nil, notPersistable("matrix tracker %q has no snapshot support (persistable: p2)", s.proto)
	case hhKind:
		switch p := s.hhp.(type) {
		case *hh.P2:
			return func() (any, error) { return p.Snapshot(), nil }, nil
		case *hh.Exact:
			return func() (any, error) { return p.Snapshot(), nil }, nil
		case *hh.Sharded:
			// Shard types never mix (one builder), so probing shard 0
			// answers for the fleet.
			switch p.Shard(0).(type) {
			case *hh.P2:
				return func() (any, error) { return captured(hh.SnapshotSharded(p)) }, nil
			case *hh.Exact:
				return func() (any, error) { return captured(hh.SnapshotShardedExact(p)) }, nil
			}
			return nil, notPersistable("sharded heavy-hitters protocol %q has no snapshot support (persistable shards: p2, exact)", s.proto)
		}
		return nil, notPersistable("heavy-hitters protocol %q has no snapshot support (persistable: p2, exact)", s.proto)
	}
	if sq, ok := s.qt.(*quantile.Sharded); ok {
		return func() (any, error) { return captured(quantile.SnapshotSharded(sq)) }, nil
	}
	qt := s.qt.(*quantile.Tracker)
	return func() (any, error) { return qt.Snapshot(), nil }, nil
}

// captured boxes a sharded snapshot, reporting a failed capture (a shard
// worker's terminal failure) as ErrNotPersistable.
func captured[T any](snap T, err error) (any, error) {
	if err != nil {
		return nil, notPersistable("%v", err)
	}
	return snap, nil
}

// assignerState extracts the persisted assigner discriminator.
func (s *Session) assignerState() (kind string, seed int64, err error) {
	switch a := s.asg.(type) {
	case *stream.UniformRandom:
		return asgUniform, a.Seed(), nil
	case *stream.RoundRobin:
		return asgRoundRobin, 0, nil
	default:
		return "", 0, notPersistable("custom assigner %T cannot be reconstructed", s.asg)
	}
}

// SaveState serializes the session to w as a self-contained gob stream.
// It returns ErrNotPersistable for sessions whose tracker or assigner
// cannot be reconstructed (see the package notes above); every other error
// comes from w.
func (s *Session) SaveState(w io.Writer) error {
	capture, err := s.snapshotter()
	if err != nil {
		return err
	}
	tracker, err := capture()
	if err != nil {
		return err
	}
	asgKind, asgSeed, err := s.assignerState()
	if err != nil {
		return err
	}
	st := sessionState{
		Version: sessionStateVersion,
		Kind:    s.kind.String(),
		Proto:   s.proto,

		Sites:      s.cfg.Sites,
		Epsilon:    s.cfg.Epsilon,
		Dim:        s.cfg.Dim,
		Seed:       s.cfg.Seed,
		Copies:     s.cfg.Copies,
		Rank:       s.cfg.Rank,
		Bits:       s.cfg.Bits,
		TrackExact: s.cfg.TrackExact,
		FastIngest: s.cfg.FastIngest,
		Shards:     s.cfg.Shards,

		Count: s.count,
		Draws: s.draws,

		AssignerKind: asgKind,
		AssignerSeed: asgSeed,

		Tracker: tracker,
	}
	if s.exact != nil {
		st.Exact = s.exact.RawData()
	}
	return gob.NewEncoder(w).Encode(st)
}

// StateEqual reports whether two SaveState streams describe the same
// session state. The stream is not byte-canonical — the map-backed
// tracker snapshots (heavy-hitters, quantile) gob-encode their counters
// in map iteration order — so replica equivalence (a recovered process
// against its never-crashed oracle, a restored checkpoint against the
// session it saved) must be checked structurally, not with bytes.Equal.
// A stream that fails to decode is an error, not inequality.
//
//distlint:unreachable-ok test oracle: the golden-checkpoint, durability, ingest and hibernation tests compare restored state through it
func StateEqual(a, b []byte) (bool, error) {
	var sa, sb sessionState
	if err := gob.NewDecoder(bytes.NewReader(a)).Decode(&sa); err != nil {
		return false, fmt.Errorf("distmat: decoding first state: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&sb); err != nil {
		return false, fmt.Errorf("distmat: decoding second state: %w", err)
	}
	return reflect.DeepEqual(sa, sb), nil
}

// RestoreSession rebuilds a session saved with SaveState. The restored
// session answers every query identically to the saved one and resumes
// ingestion under the original continuous guarantee.
func RestoreSession(r io.Reader) (_ *Session, err error) {
	var st sessionState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("distmat: decoding session state: %w", err)
	}
	if st.Version != sessionStateVersion {
		return nil, fmt.Errorf("distmat: session state version %d, want %d", st.Version, sessionStateVersion)
	}
	cfg := Config{
		Sites: st.Sites, Epsilon: st.Epsilon, Dim: st.Dim, Seed: st.Seed,
		Copies: st.Copies, Rank: st.Rank, Bits: st.Bits, TrackExact: st.TrackExact,
		FastIngest: st.FastIngest, Shards: st.Shards,
	}
	s := &Session{proto: st.Proto, cfg: cfg, count: st.Count, draws: st.Draws}
	// A sharded envelope must carry exactly the shard count the state
	// echoes (itself bounded by Config validation) — checked before any
	// shard is rebuilt, so a corrupt count never starts a worker.
	echoesShards := func(n int) error {
		if cfg.Shards != n {
			return invalidConfigf("session state says %d shards, snapshot carries %d", cfg.Shards, n)
		}
		return nil
	}
	// A restored sharded tracker starts its worker goroutines immediately;
	// release them if a later validation step rejects the state.
	defer func() {
		s.bindFleet()
		if err != nil {
			s.Close()
		}
	}()

	switch st.Kind {
	case matrixKind.String():
		s.kind = matrixKind
		if err := cfg.validateMatrix(); err != nil {
			return nil, err
		}
		switch snap := st.Tracker.(type) {
		case core.P2Snapshot:
			tr, err := core.RestoreP2(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.mat = tr
			// A session fed P2 site messages checkpointed its whole P2
			// until it became the coordinator half alone: convert it.
			// Delete at the next sessionStateVersion bump.
			if st.Count == 0 && snap.Stats.UpMsgs > 0 {
				s.mat = tr.P2Coordinator
			}
		case core.P2CoordinatorSnapshot:
			tr, err := core.RestoreP2Coordinator(snap, cfg.Dim)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.mat = tr
		case core.ShardedP2Snapshot:
			if err := echoesShards(len(snap.Shards)); err != nil {
				return nil, err
			}
			tr, err := core.RestoreShardedP2(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.mat = tr
		default:
			return nil, fmt.Errorf("distmat: matrix session state carries %T", st.Tracker)
		}
		if cfg.TrackExact {
			if len(st.Exact) != cfg.Dim*cfg.Dim {
				return nil, invalidConfigf("exact Gram has %d values for d=%d", len(st.Exact), cfg.Dim)
			}
			s.exact = matrix.SymFromRaw(cfg.Dim, st.Exact)
		}
	case hhKind.String():
		s.kind = hhKind
		if err := cfg.validateHH(); err != nil {
			return nil, err
		}
		switch snap := st.Tracker.(type) {
		case hh.P2Snapshot:
			p, err := hh.RestoreP2(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.hhp = p
		case hh.ExactSnapshot:
			p, err := hh.RestoreExact(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.hhp = p
		case hh.ShardedP2Snapshot:
			if err := echoesShards(len(snap.Shards)); err != nil {
				return nil, err
			}
			p, err := hh.RestoreSharded(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.hhp = p
		case hh.ShardedExactSnapshot:
			if err := echoesShards(len(snap.Shards)); err != nil {
				return nil, err
			}
			p, err := hh.RestoreShardedExact(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.hhp = p
		default:
			return nil, fmt.Errorf("distmat: heavy-hitters session state carries %T", st.Tracker)
		}
	case quantileKind.String():
		s.kind = quantileKind
		if err := cfg.validateQuantile(); err != nil {
			return nil, err
		}
		switch snap := st.Tracker.(type) {
		case quantile.TrackerSnapshot:
			qt, err := quantile.RestoreTracker(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.qt = qt
		case quantile.ShardedTrackerSnapshot:
			if err := echoesShards(len(snap.Shards)); err != nil {
				return nil, err
			}
			qt, err := quantile.RestoreSharded(snap)
			if err != nil {
				return nil, invalidConfig(err)
			}
			s.qt = qt
		default:
			return nil, fmt.Errorf("distmat: quantile session state carries %T", st.Tracker)
		}
	default:
		return nil, fmt.Errorf("distmat: unknown session kind %q", st.Kind)
	}

	if err := stream.CheckSites(cfg.Sites); err != nil {
		return nil, invalidConfig(err)
	}
	var asg Assigner
	switch st.AssignerKind {
	case asgUniform:
		asg = stream.NewUniformRandom(cfg.Sites, st.AssignerSeed)
	case asgRoundRobin:
		asg = stream.NewRoundRobin(cfg.Sites)
	default:
		return nil, fmt.Errorf("distmat: unknown assigner kind %q", st.AssignerKind)
	}
	// Fast-forward the assigner so its next site matches what the live
	// session would have chosen. Round-robin position is periodic in m;
	// the uniform assigner must replay its rand stream draw by draw (the
	// generator is not seekable, and swapping it would change every seeded
	// experiment), which costs ~10ns per historical assigner-routed
	// row/item at restore time — deployments with huge assigner-routed
	// volumes should feed explicit sites, which record no draws.
	replay := st.Draws
	if st.AssignerKind == asgRoundRobin {
		replay = st.Draws % int64(cfg.Sites)
	}
	for i := int64(0); i < replay; i++ {
		asg.Next()
	}
	s.cfg.Assigner = asg
	s.asg = asg
	return s, nil
}
