package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	distmat "repro"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Options configures a Manager. The zero value of every field takes the
// documented default.
type Options struct {
	// DataDir is the checkpoint directory, created if absent. Empty
	// disables persistence entirely (no checkpoints, no restore).
	DataDir string

	// CheckpointInterval is the period of the background checkpoint loop.
	// 0 disables periodic checkpointing (explicit Checkpoint calls and the
	// final Close checkpoint still run).
	CheckpointInterval time.Duration

	// WAL enables the write-ahead block log under <DataDir>/wal: every
	// direct/HTTP batch on a persistable tracker is fsync-durable before
	// it is acknowledged, and Open replays the log beyond each tracker's
	// checkpoint. Requires DataDir. Disabled by default (checkpoint-only
	// durability, the pre-WAL behavior).
	WAL bool

	// WALSegmentBytes is the log's segment rotation threshold
	// (default 16 MiB).
	WALSegmentBytes int64

	// DegradedRetry is the initial backoff of the WAL's own re-arm loop
	// after a disk failure (wal.Options.RearmDelay: default 100ms,
	// doubling to 32×).
	DegradedRetry time.Duration

	// QuarantineCorrupt renames a checkpoint that fails to restore to
	// <name>.ckpt.corrupt and continues the Open (count in /metrics)
	// instead of failing it. Default: fail fast.
	QuarantineCorrupt bool

	// FS is the filesystem seam for all checkpoint and WAL I/O
	// (default: the real filesystem). Tests inject vfs.Fault to script
	// partial writes, fsync errors, and power cuts.
	FS vfs.FS

	// MaxResident caps how many tracker sessions stay resident in memory
	// (0: unlimited). Past the cap, the least-recently-touched clean
	// tracker is hibernated: checkpointed, its session released, and the
	// Tracker left as a stub that faults back in on the next ingest or
	// query. Requires DataDir; only persistable trackers hibernate, and
	// never while the manager is degraded.
	MaxResident int

	// Logf, when set, receives operational log lines (checkpoint results,
	// restores). Default: silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Load shedding: at most admitSlots ingest calls are past admission at
// once, manager-wide; one that finds every slot still taken after
// admitTimeout is refused with ErrBusy.
const (
	admitSlots   = 64
	admitTimeout = 5 * time.Second
)

// Manager hosts named trackers: creation from Specs, ingestion on the
// caller's goroutine, checkpointing, and the HTTP surface. It starts no
// goroutine for ingest; its own are the checkpoint loop and the WAL's.
// Safe for concurrent use.
type Manager struct {
	opts  Options
	start time.Time
	fs    vfs.FS

	mu       sync.RWMutex
	trackers map[string]*Tracker //distlint:guarded-by mu
	closed   bool                //distlint:guarded-by mu

	// admission is the ingest semaphore (Tracker.admit); Close fills it to
	// wait out every admitted call. admitTimeout is the constant, in a
	// field so the shedding test need not park callers for 5 s.
	admission    chan struct{}
	admitTimeout time.Duration

	// Tenancy accounting: resident counts trackers currently holding
	// their session, faults counts hibernated sessions restored on
	// touch, evictions counts sessions released by the MaxResident
	// sweep. hibMu admits one eviction sweep at a time (TryLock:
	// concurrent callers skip; the winner sweeps down to the cap).
	resident  atomic.Int64
	faults    atomic.Int64
	evictions atomic.Int64
	hibMu     sync.Mutex

	stopCkpt chan struct{}
	ckptWG   sync.WaitGroup

	// wal, set when Options.WAL is on, is the write-ahead block log;
	// quarantined counts corrupt checkpoints set aside by
	// Options.QuarantineCorrupt.
	wal         *wal.Log
	quarantined atomic.Int64

	// wireL, when set (SetWireListener), is the wire listener serving the
	// bridge: its traffic counters are /metrics' network cost dimension,
	// and P2 trackers fed by site messages broadcast through it.
	wireL atomic.Pointer[wire.CoordListener]
}

// Open builds a Manager. When opts.DataDir is set it is created if
// needed, orphaned checkpoint temps are swept, and every checkpoint in
// it is restored; with opts.WAL the write-ahead log is then replayed
// beyond each tracker's checkpoint (truncating a torn tail from a crash
// mid-write), so a restarted process resumes every persistable tracker
// with all acknowledged batches intact. With a CheckpointInterval the
// background checkpoint loop starts too.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	m := &Manager{
		opts:     opts,
		start:    time.Now(),
		fs:       opts.FS,
		trackers: make(map[string]*Tracker),
		stopCkpt: make(chan struct{}),

		admission:    make(chan struct{}, admitSlots),
		admitTimeout: admitTimeout,
	}
	if opts.WAL && opts.DataDir == "" {
		return nil, fmt.Errorf("service: %w: WAL requires DataDir", errBadConfig)
	}
	if opts.MaxResident > 0 && opts.DataDir == "" {
		return nil, fmt.Errorf("service: %w: MaxResident requires DataDir (hibernation evicts to checkpoints)", errBadConfig)
	}
	if opts.DataDir != "" {
		if err := m.fs.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: data dir: %w", err)
		}
		if err := m.restoreAll(); err != nil {
			m.closeTrackers()
			return nil, err
		}
	}
	if opts.WAL {
		wlog, err := wal.Open(wal.Options{
			Dir:          filepath.Join(opts.DataDir, "wal"),
			FS:           m.fs,
			SegmentBytes: opts.WALSegmentBytes,
			RearmDelay:   opts.DegradedRetry,
			Logf:         opts.Logf,
		}, m.replayWAL)
		if err != nil {
			m.closeTrackers()
			return nil, fmt.Errorf("service: opening wal: %w", err)
		}
		m.wal = wlog
		m.mu.Lock()
		for _, t := range m.trackers {
			if t.persistable {
				t.wal = wlog
			}
		}
		m.mu.Unlock()
	}
	if opts.DataDir != "" && opts.CheckpointInterval > 0 {
		m.ckptWG.Add(1)
		go m.checkpointLoop()
	}
	// A restore + replay may have brought back more sessions than the
	// resident cap allows; hibernate down to it before serving.
	m.maybeEnforce()
	return m, nil
}

// errBadConfig marks invalid Options combinations.
var errBadConfig = errors.New("invalid options")

// closeTrackers releases sessions built during a failed Open. Only
// called before the manager is shared, so the registry needs no lock.
//
//distlint:caller-holds mu
func (m *Manager) closeTrackers() {
	for _, t := range m.trackers {
		t.close()
	}
}

// replayWAL applies one recovered log record during Open, before the
// manager is shared with any goroutine (registry writes need no lock).
// Unreplayable records — an unknown tracker, a session rejection — are
// logged and skipped rather than failing the Open: the crashed instance
// hit the same deterministic rejection when it first applied them, so
// skipping reproduces its state; and a record for a tracker whose
// delete was acknowledged has nothing to land on by design.
//
//distlint:caller-holds mu
func (m *Manager) replayWAL(rec *wal.Record) error {
	switch rec.Kind {
	case wal.KindCreate:
		if _, ok := m.trackers[rec.Tracker]; ok {
			// Already restored from its checkpoint (which post-dates the
			// create record by construction).
			return nil
		}
		var spec Spec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			m.opts.Logf("wal replay: create %q (LSN %d): bad spec: %v (skipped)", rec.Tracker, rec.LSN, err)
			return nil
		}
		spec, sess, err := buildSession(spec)
		if err != nil {
			m.opts.Logf("wal replay: create %q (LSN %d): %v (skipped)", rec.Tracker, rec.LSN, err)
			return nil
		}
		t := newTracker(m, rec.Tracker, spec, sess)
		t.mu.Lock()
		t.walLSN = rec.LSN
		t.mu.Unlock()
		m.trackers[rec.Tracker] = t
		m.opts.Logf("wal replay: recreated %s (%s %s)", rec.Tracker, spec.Kind, spec.Protocol)
	case wal.KindDelete:
		t, ok := m.trackers[rec.Tracker]
		if !ok {
			return nil
		}
		delete(m.trackers, rec.Tracker)
		t.deleted.Store(true)
		t.close()
		// The crashed instance may have gone down between the delete
		// record landing and the checkpoint file removal.
		if err := m.removeCheckpoint(rec.Tracker); err != nil {
			return fmt.Errorf("removing checkpoint of replayed delete: %w", err)
		}
		m.opts.Logf("wal replay: deleted %s", rec.Tracker)
	default:
		t, ok := m.trackers[rec.Tracker]
		if !ok {
			m.opts.Logf("wal replay: %v for unknown tracker %q (LSN %d, skipped)", rec.Kind, rec.Tracker, rec.LSN)
			return nil
		}
		if err := t.replayRecord(rec); err != nil {
			m.opts.Logf("wal replay: LSN %d on %s: %v (skipped)", rec.LSN, rec.Tracker, err)
		}
	}
	return nil
}

// gate, stage and commit are the service's side of the write-ahead log.
// Healthy path: stage a record inside the tracker-lock critical section
// that applies the batch (LSN order = apply order), commit outside it,
// acknowledge only after both. A damaged log (a failed write or fsync;
// it re-arms itself) is degraded mode: each helper maps the failure onto
// ErrDegraded (HTTP 503 + Retry-After), while queries, metrics and the
// wire path (whose durability is watermark retransmit, not the WAL) keep
// serving. Every other error — a closed log, a record the encoder
// rejects — is reported as it is.

// gate returns ErrDegraded wrapping the log's damage, or nil while the
// log is armed. Ingest paths call it before taking an admission slot.
func gate(l *wal.Log) error {
	if err := l.Damaged(); err != nil {
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return nil
}

// stage appends one record, assigning its LSN. On any error the batch
// must not be applied.
func stage(l *wal.Log, rec *wal.Record) (uint64, error) {
	lsn, err := l.Append(rec)
	if err != nil && l.Damaged() != nil {
		err = fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return lsn, err
}

// commit blocks until the record's group commit lands.
func commit(l *wal.Log, lsn uint64) error {
	err := l.WaitDurable(lsn)
	if err != nil && l.Damaged() != nil {
		err = fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return err
}

// buildSession normalizes a spec, builds its session, and echoes the
// reconciled configuration back into the spec so GET /trackers shows
// the effective parameters, not the elided zeroes. The echoed spec
// (seed included) round-trips through JSON into a bit-identical
// session, which is what makes WAL create records replayable.
func buildSession(spec Spec) (Spec, *distmat.Session, error) {
	spec, err := spec.normalize()
	if err != nil {
		return spec, nil, err
	}
	sess, err := spec.build()
	if err != nil {
		return spec, nil, err
	}
	cfg := sess.Config()
	spec.Sites, spec.Epsilon, spec.Seed = cfg.Sites, cfg.Epsilon, cfg.Seed
	if spec.Kind == KindMatrix {
		spec.Dim = cfg.Dim
	}
	if spec.Kind == KindQuantile {
		spec.Bits = cfg.Bits
	}
	// Echo the shard count only for actually-sharded trackers (any kind),
	// so unsharded specs keep their pre-sharding wire form.
	if shards := sess.Shards(); shards > 1 {
		spec.Shards = shards
	}
	return spec, sess, nil
}

// Create builds a tracker from a Spec and registers it under name. On a
// WAL-enabled manager the creation of a persistable tracker is durable
// before Create returns.
func (m *Manager) Create(name string, spec Spec) (*Tracker, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	spec, sess, err := buildSession(spec)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// The session was built before the registration checks; release it
		// (a sharded tracker holds worker goroutines).
		sess.Close()
		return nil, ErrClosed
	}
	if _, ok := m.trackers[name]; ok {
		m.mu.Unlock()
		sess.Close()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	t := newTracker(m, name, spec, sess)
	var createLSN uint64
	if m.wal != nil && t.persistable {
		t.wal = m.wal
		// Stage the create record while holding the registry lock, so any
		// batch staged through the just-published tracker gets a later
		// LSN: replay always sees the create first. (If the record never
		// becomes durable, neither do those batches — durability is a
		// prefix of the LSN order — so no acknowledged state depends on
		// an unlogged tracker.)
		blob, jerr := json.Marshal(spec)
		if jerr == nil {
			createLSN, jerr = stage(m.wal, &wal.Record{Kind: wal.KindCreate, Tracker: name, Spec: blob})
		}
		if jerr != nil {
			m.mu.Unlock()
			t.close()
			m.resident.Add(-1)
			return nil, jerr
		}
		t.mu.Lock()
		t.walLSN = createLSN
		t.mu.Unlock()
	}
	m.trackers[name] = t
	m.mu.Unlock()

	if t.wal != nil {
		if err := commit(t.wal, createLSN); err != nil {
			m.mu.Lock()
			if cur, ok := m.trackers[name]; ok && cur == t {
				delete(m.trackers, name)
			}
			m.mu.Unlock()
			t.deleted.Store(true)
			t.close()
			m.resident.Add(-1)
			return nil, err
		}
	}
	m.maybeEnforce()
	return t, nil
}

// Get returns the named tracker.
func (m *Manager) Get(name string) (*Tracker, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.trackers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t, nil
}

// List returns every tracker, sorted by name.
func (m *Manager) List() []*Tracker {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Tracker, 0, len(m.trackers))
	for _, t := range m.trackers {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Delete stops the named tracker, removes it, and deletes its checkpoint
// file. On a WAL-enabled manager the deletion of a persistable tracker
// is logged durably first, so an acknowledged delete can never be
// resurrected by recovery; in degraded mode Delete fails with
// ErrDegraded like any other durable mutation.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	t, ok := m.trackers[name]
	if ok && t.wal != nil {
		// The registry still holds the tracker while the delete record
		// commits, so a failed commit leaves it fully serviceable.
		lsn, err := stage(t.wal, &wal.Record{Kind: wal.KindDelete, Tracker: name})
		if err == nil {
			m.mu.Unlock()
			err = commit(t.wal, lsn)
			m.mu.Lock()
		}
		if err != nil {
			m.mu.Unlock()
			return err
		}
		if t2, still := m.trackers[name]; !still || t2 != t {
			// A concurrent Delete won the race while the lock was dropped.
			m.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
	}
	if ok {
		delete(m.trackers, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// Mark deleted before stopping: checkpointTracker skips deleted
	// trackers, and ckptMu orders the file removal below after any
	// checkpoint already in flight.
	t.deleted.Store(true)
	if t.resident() {
		// A hibernated stub already gave its slot back at eviction.
		m.resident.Add(-1)
	}
	t.close()
	if m.opts.DataDir != "" {
		t.ckptMu.Lock()
		err := m.removeCheckpoint(name)
		t.ckptMu.Unlock()
		if err != nil {
			return fmt.Errorf("service: removing checkpoint: %w", err)
		}
	}
	return nil
}

// Uptime returns how long the manager has been open.
func (m *Manager) Uptime() time.Duration { return time.Since(m.start) }

// Close stops the checkpoint loop, takes a final checkpoint of every
// persistable tracker, and stops all trackers. The manager rejects new
// work afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	close(m.stopCkpt)
	m.ckptWG.Wait()

	// Stop ingestion before the final checkpoint: a batch that reached its
	// tracker's lock first is applied whole and the checkpoint below
	// persists it; every later one gets ErrClosed (not acked) and must
	// retry after restart.
	for _, t := range m.List() {
		t.close()
	}
	// Admitted calls may still be waiting for their group commit or
	// running the eviction sweep; taking every slot waits them out, so no
	// ingest call touches the log or a checkpoint file after Close. The
	// slots stay taken: later calls see their tracker closed instead.
	for i := 0; i < admitSlots; i++ {
		m.admission <- struct{}{}
	}
	err := m.CheckpointAll()
	// The final checkpoint covers the whole log (when it succeeded), so
	// CheckpointAll's compaction pass has already shrunk the WAL; closing
	// it stops its re-arm loop too.
	if m.wal != nil {
		if werr := m.wal.Close(); werr != nil {
			err = errors.Join(err, fmt.Errorf("service: closing wal: %w", werr))
		}
	}
	return err
}
