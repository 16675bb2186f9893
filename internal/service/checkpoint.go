package service

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	distmat "repro"
	"repro/internal/vfs"
)

// A checkpoint file is one gob-encoded envelope per tracker, written
// atomically (temp file + rename) as <DataDir>/<name>.ckpt. The envelope
// carries the Spec for presentation; the session payload is the facade's
// SaveState stream, which is what actually restores the tracker.

const checkpointExt = ".ckpt"

// envelope is the on-disk checkpoint layout.
type envelope struct {
	Version int
	Name    string
	Spec    Spec
	State   []byte // distmat.(*Session).SaveState output

	// Watermarks are the per-site applied wire-stream watermarks at the
	// instant State was captured (same tracker-lock critical section), so
	// a restored tracker resumes its site streams from exactly the blocks
	// its state contains. Absent in pre-wire checkpoints; gob decodes
	// those with a nil map, which restores as "no streams yet".
	Watermarks map[int]uint64

	// WalLSN is the tracker's write-ahead-log position at the instant
	// State was captured (same critical section): every logged record at
	// or below it is already in State, so recovery replays only the
	// records beyond it, and the minimum across trackers is the log's
	// compaction floor. Zero in checkpoints from WAL-disabled managers
	// (gob leaves absent fields zero) — there is then no log to replay.
	WalLSN uint64
}

const envelopeVersion = 1

func (m *Manager) checkpointPath(name string) string {
	return filepath.Join(m.opts.DataDir, name+checkpointExt)
}

// checkpointLoop periodically checkpoints dirty trackers until Close.
func (m *Manager) checkpointLoop() {
	defer m.ckptWG.Done()
	ticker := time.NewTicker(m.opts.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := m.checkpointDirty(); err != nil {
				m.opts.Logf("checkpoint: %v", err)
			}
		case <-m.stopCkpt:
			return
		}
	}
}

// checkpointDirty checkpoints every persistable tracker that changed since
// its last checkpoint (or that has never been written).
func (m *Manager) checkpointDirty() error {
	var errs []error
	for _, t := range m.List() {
		if t.clean() {
			continue
		}
		if err := m.checkpointTracker(t); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", t.name, err))
		}
	}
	m.compactWAL()
	return errors.Join(errs...)
}

// Checkpoint saves the named tracker now.
func (m *Manager) Checkpoint(name string) error {
	t, err := m.Get(name)
	if err != nil {
		return err
	}
	if err := m.checkpointTracker(t); err != nil {
		return err
	}
	m.compactWAL()
	return nil
}

// CheckpointAll saves every persistable tracker now, joining any errors.
func (m *Manager) CheckpointAll() error {
	var errs []error
	for _, t := range m.List() {
		if err := m.checkpointTracker(t); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", t.name, err))
		}
	}
	m.compactWAL()
	return errors.Join(errs...)
}

// compactWAL deletes log segments every persistable tracker's last
// durable checkpoint covers. Failed checkpoints hold the floor back
// (walCkpt only advances on success), so compaction can never outrun
// what the checkpoint files actually contain. A tracker whose live cursor
// equals its checkpointed one (an idle tenant, a stub) has no record in
// the log and does not hold the floor; DurableLSN is read first, so
// whatever such a tracker stages after its cursor was read lands above
// the floor.
func (m *Manager) compactWAL() {
	if m.wal == nil {
		return
	}
	floor := m.wal.DurableLSN()
	for _, t := range m.List() {
		if !t.persistable {
			continue
		}
		t.mu.Lock()
		live := t.walLSN
		t.mu.Unlock()
		if c := t.walCkpt.Load(); c != live && c < floor {
			floor = c
		}
	}
	if _, err := m.wal.Compact(floor); err != nil {
		m.opts.Logf("wal compaction: %v", err)
	}
}

// checkpointTracker serializes one tracker to its checkpoint file. Not
// persistable, no data dir, or a tracker stopped mid-flight (deleted) is a
// silent no-op (the status is visible in /metrics); anything else is an
// error, also recorded on the tracker.
func (m *Manager) checkpointTracker(t *Tracker) error {
	if m.opts.DataDir == "" || !t.persistable {
		return nil
	}
	// ckptMu spans serialize→rename: concurrent checkpointers (ticker,
	// HTTP, Close) cannot interleave a stale rename over newer state, and
	// Delete (which marks the tracker deleted, then removes the file
	// under the same mutex) cannot have its checkpoint file resurrected.
	// Closed-but-not-deleted trackers still checkpoint — Manager.Close
	// stops ingestion first and checkpoints after, so every
	// acknowledged batch is persisted.
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	if t.deleted.Load() {
		return nil
	}
	// Serialize under the tracker lock so the snapshot is a consistent
	// instant; write the file outside it. The wire watermarks are copied
	// in the same critical section — they describe exactly the blocks the
	// serialized state contains.
	t.mu.Lock()
	if t.sess == nil {
		// Hibernated stub: its checkpoint file already holds exactly its
		// state (only clean trackers hibernate), so there is nothing newer
		// to write — and nothing to serialize it from.
		t.mu.Unlock()
		return nil
	}
	var state bytes.Buffer
	err := t.sess.SaveState(&state)
	var wmSnap map[int]uint64
	var walSnap uint64
	if err == nil {
		t.dirty = false
		walSnap = t.walLSN
		if len(t.wm) > 0 {
			wmSnap = make(map[int]uint64, len(t.wm))
			for s, a := range t.wm {
				wmSnap[s] = a
			}
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = writeFileAtomic(m.fs, m.checkpointPath(t.name), envelope{
			Version: envelopeVersion, Name: t.name, Spec: t.spec, State: state.Bytes(),
			Watermarks: wmSnap, WalLSN: walSnap,
		})
	}
	if err != nil {
		t.ckptErr.Store(err.Error())
		t.mu.Lock()
		t.dirty = true
		t.mu.Unlock()
		return err
	}
	// The file is durable: records up to walSnap are covered, so the WAL
	// may compact segments below the cross-tracker minimum.
	t.walCkpt.Store(walSnap)
	if wmSnap != nil {
		// The file is durable: blocks up to the captured watermarks now
		// survive a restart, so sites may discard them.
		t.mu.Lock()
		for s, a := range wmSnap {
			if a > t.wmDurable[s] {
				t.wmDurable[s] = a
			}
		}
		t.mu.Unlock()
	}
	t.ckptErr.Store("")
	t.lastCkpt.Store(time.Now().UnixNano())
	m.opts.Logf("checkpointed %s (%d rows/items)", t.name, t.Count())
	return nil
}

// tempPrefix marks in-flight checkpoint temp files; Manager.Open sweeps
// orphans a crash left behind (the deferred Remove below only runs
// in-process).
const tempPrefix = ".ckpt-"

// writeFileAtomic gob-encodes env into path via a temp file + fsync +
// rename (+ directory fsync), so a crash mid-write never corrupts the
// previous checkpoint and a completed rename is durable. All I/O goes
// through the FS seam, so tests can cut the power at any byte.
func writeFileAtomic(fsys vfs.FS, path string, env envelope) error {
	dir := filepath.Dir(path)
	tmp, err := vfs.CreateTemp(fsys, dir, tempPrefix)
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if err := gob.NewEncoder(tmp).Encode(env); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename must be durable before the checkpoint may advance the
	// durable watermarks (and let the WAL compact): an unsynced rename
	// that rolls back across a crash would strand acknowledged data.
	// (osFS.SyncDir internally tolerates filesystems that reject
	// directory fsync; real failures and injected ones propagate.)
	return fsys.SyncDir(dir)
}

// removeCheckpoint deletes a tracker's checkpoint file, if any, and syncs
// the data directory: a remove is durable only once its directory is
// synced (vfs.FS), and nothing else on the delete path syncs it — the
// WAL's own SyncDir covers its wal/ subdirectory — so without this a power
// cut after compaction dropped the delete record could bring the file, and
// with it the tracker, back.
func (m *Manager) removeCheckpoint(name string) error {
	if err := m.fs.Remove(m.checkpointPath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return m.fs.SyncDir(m.opts.DataDir)
}

// corruptExt is appended to a quarantined checkpoint's filename.
const corruptExt = ".corrupt"

// restoreAll loads every checkpoint in the data directory into fresh
// trackers, sweeping orphaned temp files a crash mid-checkpoint left
// behind. By default a file that fails to restore is an error: silently
// dropping state would break the continuous guarantee the checkpoints
// exist for. With Options.QuarantineCorrupt the bad file is renamed to
// <name>.ckpt.corrupt (preserved for forensics, never rescanned),
// counted in /metrics, and the restore continues.
//
// Open calls restoreAll during construction, before the manager is shared
// with any other goroutine, so the registry writes below need no lock.
//
//distlint:caller-holds mu
func (m *Manager) restoreAll() error {
	entries, err := m.fs.ReadDir(m.opts.DataDir)
	if err != nil {
		return fmt.Errorf("service: reading data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(m.opts.DataDir, e.Name())
		if strings.HasPrefix(e.Name(), tempPrefix) {
			// An in-flight temp from a crashed checkpoint write; the
			// completed rename never happened, so it holds nothing durable.
			if err := m.fs.Remove(path); err != nil {
				m.opts.Logf("sweeping %s: %v", e.Name(), err)
			} else {
				m.opts.Logf("swept orphaned checkpoint temp %s", e.Name())
			}
			continue
		}
		if !strings.HasSuffix(e.Name(), checkpointExt) {
			continue
		}
		t, err := m.restoreOne(path)
		if err != nil {
			if !m.opts.QuarantineCorrupt {
				return fmt.Errorf("service: restoring %s: %w", e.Name(), err)
			}
			if qerr := m.fs.Rename(path, path+corruptExt); qerr != nil {
				return fmt.Errorf("service: quarantining %s: %w", e.Name(), qerr)
			}
			m.quarantined.Add(1)
			m.opts.Logf("quarantined corrupt checkpoint %s -> %s%s: %v", e.Name(), e.Name(), corruptExt, err)
			continue
		}
		m.trackers[t.name] = t
		m.opts.Logf("restored %s (%s %s, %d rows/items)", t.name, t.spec.Kind, t.spec.Protocol, t.Count())
	}
	return nil
}

// readEnvelope loads and validates one checkpoint file — the shared
// front half of a full restore (Open) and a hibernation fault-in.
func (m *Manager) readEnvelope(path string) (envelope, error) {
	var env envelope
	f, err := vfs.Open(m.fs, path)
	if err != nil {
		return env, err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&env); err != nil {
		return env, fmt.Errorf("decoding envelope: %w", err)
	}
	if env.Version != envelopeVersion {
		return env, fmt.Errorf("checkpoint version %d, want %d", env.Version, envelopeVersion)
	}
	if err := CheckName(env.Name); err != nil {
		return env, err
	}
	if want := strings.TrimSuffix(filepath.Base(path), checkpointExt); env.Name != want {
		return env, fmt.Errorf("checkpoint names tracker %q, file says %q", env.Name, want)
	}
	return env, nil
}

// restoreOne loads one checkpoint file into a fresh tracker.
func (m *Manager) restoreOne(path string) (*Tracker, error) {
	env, err := m.readEnvelope(path)
	if err != nil {
		return nil, err
	}
	sess, err := distmat.RestoreSession(bytes.NewReader(env.State))
	if err != nil {
		return nil, err
	}
	t := newTracker(m, env.Name, env.Spec, sess)
	t.mu.Lock()
	for s, a := range env.Watermarks {
		// Everything the checkpoint describes is both applied and durable
		// in the restored tracker; sites resume from here.
		t.wm[s] = a
		t.wmDurable[s] = a
	}
	// WAL replay (which runs after every checkpoint is restored) skips
	// records the state already contains.
	t.walLSN = env.WalLSN
	t.mu.Unlock()
	t.walCkpt.Store(env.WalLSN)
	if info, err := m.fs.Stat(path); err == nil {
		t.lastCkpt.Store(info.ModTime().UnixNano())
	}
	return t, nil
}
