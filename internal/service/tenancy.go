package service

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	distmat "repro"
)

// Tracker hibernation: Options.MaxResident bounds the resident working
// set. A manager past the cap hibernates its least-recently-touched
// clean trackers — checkpoint the session (reusing the ordinary
// checkpoint path), release it, and leave the Tracker as a stub holding
// watermarks, counters, and the WAL cursor. The next ingest, query, or
// wire block faults the session back in by restoring the checkpoint —
// and nothing else: the log is never read, so a fault-in costs O(own
// checkpoint) however long the WAL has grown, and a faulted-in tracker is
// bit-identical (distmat.StateEqual) to one that never hibernated.
//
// Invariant: only clean (checkpointed, nothing in flight) trackers
// hibernate, and a stub must fault in before it can stage a record, so
// the log holds no record of a stub past its checkpoint. The invariant is
// checked, not assumed: Tracker.walLSN — the LSN of the tracker's last
// own record — survives eviction in the stub, and faultIn refuses a
// checkpoint file whose WalLSN differs from it (errStaleCheckpoint)
// rather than install a session that has lost records. A log-cursor
// advance marks the tracker dirty even when the session rejected the
// batch, so "clean" always implies "file cursor == live cursor".
// Hibernation pauses entirely while the manager is degraded — a damaged
// WAL means new batches cannot be logged, and the eviction checkpoint
// could otherwise advance coverage past records the re-arm will discard.

// errStaleCheckpoint marks a fault-in refused because the checkpoint file
// on disk is not the one the stub was evicted to.
var errStaleCheckpoint = errors.New("checkpoint does not match the hibernated tracker")

// maybeEnforce nudges the resident-session count back under
// Options.MaxResident by hibernating the coldest clean trackers. Cheap
// while under the cap (two atomic loads); a TryLock admits one sweep at
// a time — concurrent callers skip, the winner sweeps down to the cap.
func (m *Manager) maybeEnforce() {
	limit := int64(m.opts.MaxResident)
	if limit <= 0 || m.resident.Load() <= limit {
		return
	}
	if !m.hibMu.TryLock() {
		return
	}
	defer m.hibMu.Unlock()
	var cands []*Tracker
	for _, t := range m.List() {
		if t.persistable && !t.deleted.Load() && t.resident() {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastTouch.Load() < cands[j].lastTouch.Load()
	})
	for _, t := range cands {
		if m.resident.Load() <= limit {
			return
		}
		m.hibernate(t)
	}
}

// hibernate checkpoints one tracker (unless it is already clean) and
// releases its session, leaving the stub behind. Returns false without
// evicting when the tracker is not eligible: unpersistable, deleted,
// closed, dirty again after the checkpoint, already hibernated,
// mid-ingest, or the manager degraded.
func (m *Manager) hibernate(t *Tracker) bool {
	if m.opts.DataDir == "" || !t.persistable || t.deleted.Load() {
		return false
	}
	if m.wal != nil && m.wal.Damaged() != nil {
		return false
	}
	// A tracker faulted in by a query and never written to is still clean:
	// its file is already what a checkpoint would write. The dirty re-check
	// below decides the eviction either way.
	if !t.clean() {
		if err := m.checkpointTracker(t); err != nil {
			m.opts.Logf("hibernate %s: checkpoint: %v", t.name, err)
			return false
		}
	}
	// ckptMu before mu (the checkpoint lock order): no checkpointer can
	// be mid-serialize while the session goes away, and no new checkpoint
	// can start between the dirty re-check and the release.
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil || t.dirty || t.deleted.Load() {
		return false
	}
	select {
	case <-t.closed:
		return false
	default:
	}
	if t.inflight.Load() > 0 {
		// A batch is waiting for mu or for its group commit; it would fault
		// the session straight back in — not a useful eviction.
		return false
	}
	t.hibStats = t.sess.StatsRelaxed()
	t.hibShards = t.sess.Shards()
	t.sess.Close()
	t.sess = nil
	m.resident.Add(-1)
	m.evictions.Add(1)
	m.opts.Logf("hibernated %s (resident %d/%d)", t.name, m.resident.Load(), m.opts.MaxResident)
	return true
}

// faultIn restores a hibernated tracker's session from its checkpoint
// file alone. The stub's walLSN is the tracker's last own log record and
// the file must cover exactly it; equal cursors prove the WAL holds
// nothing to replay, so the log (and its mutex) is never touched. A
// mismatch — the file was replaced behind the manager's back — fails the
// fault-in with the session not installed; a restart recovers through the
// WAL. Called with t.mu held: the faulting request owns the stub, whose
// watermark maps, counters, and walLSN survived eviction untouched.
//
//distlint:caller-holds mu
func (m *Manager) faultIn(t *Tracker) error {
	env, err := m.readEnvelope(m.checkpointPath(t.name))
	if err != nil {
		return fmt.Errorf("service: faulting in %s: %w", t.name, err)
	}
	if env.WalLSN != t.walLSN {
		return fmt.Errorf("service: faulting in %s: %w: file covers WAL LSN %d, stub is at %d",
			t.name, errStaleCheckpoint, env.WalLSN, t.walLSN)
	}
	sess, err := distmat.RestoreSession(bytes.NewReader(env.State))
	if err != nil {
		return fmt.Errorf("service: faulting in %s: %w", t.name, err)
	}
	t.sess = sess
	m.resident.Add(1)
	m.faults.Add(1)
	t.touch()
	m.opts.Logf("faulted in %s (%d rows/items)", t.name, t.Count())
	return nil
}
