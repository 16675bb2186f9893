package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	distmat "repro"
	"repro/internal/core"
	"repro/internal/wal"
)

// AssignSite routes a batch through the session's site assigner (the
// paper's arrival model) instead of an explicit site.
const AssignSite = -1

// ingestReq is one batch. Exactly one of rows/items/msgs is set. seq, when
// non-zero, is the wire stream's block number: apply dedups against the
// site's watermark and advances it atomically with the session mutation.
type ingestReq struct {
	site  int // explicit site, or AssignSite
	seq   uint64
	rows  [][]float64
	items []distmat.WeightedItem
	msgs  *msgBlock // a wire msg-block of P2 site messages (wire.go)
}

// Tracker is one hosted session: a named tracker plus its counters. It
// owns no goroutine — every batch and query runs on its caller's, under
// mu. All methods are safe for concurrent use.
//
// A tracker need not hold its session: under Options.MaxResident an idle
// tracker hibernates — its state is checkpointed, the session released,
// and the Tracker left as a stub (sess == nil under mu) holding only
// watermarks, counters, and the WAL cursor. The next ingest or query
// faults the session back in from the checkpoint alone.
// See ensureSessionLocked for the stub locking contract.
type Tracker struct {
	name        string
	spec        Spec
	persistable bool
	created     time.Time
	baseCount   int64 // session count at construction (restored checkpoints)

	m *Manager // owning manager: admission, hibernation, fault-in

	// mu guards sess and dirty. Ingestion applies each batch under mu on
	// its caller's goroutine; queries take it only for the snapshot. sess is
	// nil while the tracker is hibernated — every access must go through
	// ensureSessionLocked (or return the hib* cache) first.
	mu   sync.Mutex
	sess *distmat.Session //distlint:guarded-by mu
	//distlint:guarded-by mu
	dirty bool // mutated since the last (attempted) checkpoint

	// hibStats and hibShards cache the session's communication tally and
	// shard count at hibernation, so /metrics scrapes never fault a stub
	// back in just to read counters.
	//distlint:guarded-by mu
	hibStats distmat.Stats
	//distlint:guarded-by mu
	hibShards int

	// Wire stream watermarks, per site. wm advances atomically with the
	// session apply (same mu critical section), so a checkpoint captured
	// under mu describes exactly the blocks its state contains; wmDurable
	// advances only after that checkpoint file lands. Both survive
	// hibernation in the stub.
	//distlint:guarded-by mu
	wm map[int]uint64
	//distlint:guarded-by mu
	wmDurable map[int]uint64

	// wal, when set (WAL-enabled manager, persistable tracker), write-ahead
	// logs every direct/HTTP batch before it is applied. walLSN is the
	// LSN of the tracker's last own log record — staged in the same mu
	// critical section as the apply, so a checkpoint captured under mu
	// records exactly the log prefix its state contains; every advance
	// also sets dirty. walCkpt is the walLSN the last durable checkpoint
	// file covers: the tracker's WAL compaction floor while it trails
	// walLSN, and the cursor a fault-in checks the file against (a stub's
	// walLSN equals it — see tenancy.go).
	wal *wal.Log
	//distlint:guarded-by mu
	walLSN  uint64
	walCkpt atomic.Uint64

	// closed is closed by close, under mu: a batch that takes mu afterwards
	// is refused with ErrClosed, one that held it first was applied whole.
	closed    chan struct{}
	closeOnce sync.Once

	// inflight counts ingest calls admitted and not yet answered (waiting
	// for mu, applying, or waiting for the group commit).
	inflight atomic.Int64

	// lastTouch (unix nanos) is the hibernation LRU clock, advanced by
	// every apply, query, and fault-in.
	lastTouch atomic.Int64

	// ckptMu serializes whole checkpoint operations (serialize + file
	// write + rename) and file removal on delete, so concurrent
	// checkpointers cannot rename stale state over newer state and a
	// deleted tracker's file cannot be resurrected by an in-flight
	// checkpoint. Hibernation releases the session under the same mutex,
	// so the checkpoint it depends on cannot race a concurrent writer.
	// deleted (distinct from closed: Close stops ingestion and *then*
	// checkpoints, so every acknowledged batch is persisted) marks
	// trackers whose state must never be written again.
	ckptMu  sync.Mutex
	deleted atomic.Bool

	ingested atomic.Int64 // rows/items applied
	batches  atomic.Int64 // batches applied (rows/items ÷ batches = mean block size)
	rejected atomic.Int64 // batches refused by backpressure

	wireRows   atomic.Int64 // rows applied through the wire path
	wireBlocks atomic.Int64 // wire blocks applied
	wireDups   atomic.Int64 // duplicate wire blocks dropped by seq dedup
	lastCkpt   atomic.Int64 // unix nanos of the last successful checkpoint
	ckptErr    atomic.Value // string: last checkpoint failure, "" when clean

	// memo is the last ?gram=1 answer, under its own mutex: see gramMemo.
	// A query takes that mutex without mu; hibernation and fault-in take
	// it under mu, to drop the memo as the session goes and to let it keep
	// again once the session is back.
	memo gramMemo
}

// newTracker wires a tracker around an existing session.
func newTracker(m *Manager, name string, spec Spec, sess *distmat.Session) *Tracker {
	t := &Tracker{
		name:      name,
		spec:      spec,
		created:   time.Now(),
		baseCount: sess.Count(),
		m:         m,
		sess:      sess,
		wm:        make(map[int]uint64),
		wmDurable: make(map[int]uint64),
		closed:    make(chan struct{}),
	}
	t.ckptErr.Store("")
	t.touch()
	t.persistable = sess.Persistable() == nil
	m.resident.Add(1)
	return t
}

// touch advances the hibernation LRU clock.
func (t *Tracker) touch() { t.lastTouch.Store(time.Now().UnixNano()) }

// resident reports whether the tracker currently holds its session (a
// hibernated stub does not).
func (t *Tracker) resident() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sess != nil
}

// clean reports whether the tracker's checkpoint file already holds its
// state: nothing applied or logged since the last successful checkpoint.
func (t *Tracker) clean() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.dirty && t.lastCkpt.Load() != 0
}

// ensureSessionLocked faults a hibernated tracker's session back in from
// its checkpoint file.
//
// The stub locking contract: t.sess may be nil whenever t.mu is held.
// Every code path that dereferences t.sess must either call this first
// (ingest, queries, SaveState) or serve from the stub's caches instead
// (Stats, statsRelaxed, ShardInfo, metrics — monitoring must never fault
// a session in).
//
//distlint:caller-holds mu
func (t *Tracker) ensureSessionLocked() error {
	if t.sess != nil {
		return nil
	}
	if t.deleted.Load() {
		return fmt.Errorf("%w: %q", ErrNotFound, t.name)
	}
	return t.m.faultIn(t)
}

// close stops the tracker: a batch that already holds mu is applied
// whole, every later one gets ErrClosed, and the session is closed so a
// sharded tracker's compute workers stop too (flushing their in-flight
// blocks first, so a final checkpoint after close persists every applied
// batch). The session pointer is kept: Manager.Close checkpoints after
// closing, and SaveState on a closed session still serializes its final
// state.
func (t *Tracker) close() {
	t.closeOnce.Do(func() {
		// Under mu: behind any batch mid-apply, and a periodic checkpoint
		// may still be serializing state.
		t.mu.Lock()
		close(t.closed)
		if t.sess != nil {
			t.sess.Close()
		}
		t.mu.Unlock()
	})
}

// apply ingests one batch. Row batches flow through the session's blocked
// batch path (Session.ProcessRows(At) hands whole same-site blocks to the
// tracker's ProcessRows), so a posted batch costs one blocked ingest, not a
// per-row loop. On a mid-batch error the preceding entries
// remain ingested (the session contract); the error reports the index.
//
// With a WAL attached, direct/HTTP batches (seq == 0) are staged to the
// log inside the same critical section before the apply — so the log's
// LSN order is the apply order — and the acknowledgement waits for the
// group commit after the lock is released: acked ⇒ durable ∧ applied.
// Wire blocks (seq > 0) are not logged; their durability is the
// checkpoint watermark plus site retransmit.
//
// A hibernated tracker faults its session back in first — before the WAL
// stage, so a failed restore rejects the batch without logging a record
// the state cannot contain.
func (t *Tracker) apply(req ingestReq) error {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return ErrClosed
	default:
	}
	if err := t.ensureSessionLocked(); err != nil {
		t.mu.Unlock()
		return err
	}
	if _, msgFed := t.sess.Matrix().(*core.P2Coordinator); msgFed && req.rows != nil {
		// Before the WAL stage: a logged batch replays on a tracker that
		// has lost its unlogged msg-blocks, and would be taken there.
		t.mu.Unlock()
		return fmt.Errorf("%w: tracker %q is fed P2 site messages and takes no rows", distmat.ErrWrongKind, t.name)
	}
	var walLSN uint64
	logged := false
	if t.wal != nil && req.seq == 0 {
		if rec := walRecord(t.name, req); rec != nil {
			lsn, err := stage(t.wal, rec)
			if err != nil {
				// Nothing reached the log; applying would make state the
				// replay cannot reproduce, so reject the batch whole.
				t.mu.Unlock()
				return err
			}
			// Dirty even if the session rejects the batch: the checkpoint
			// file's cursor is now behind the log.
			t.walLSN, t.dirty = lsn, true
			walLSN = lsn
			logged = true
		}
	}
	err := t.applyLocked(req)
	t.mu.Unlock()
	t.touch()
	if logged {
		if derr := commit(t.wal, walLSN); derr != nil {
			return derr
		}
	}
	return err
}

// walRecord builds the WAL record for one batch, or nil for an empty
// batch (nothing to replay). The record borrows the batch: Log.Append
// encodes it before returning.
func walRecord(name string, req ingestReq) *wal.Record {
	if req.rows != nil {
		if len(req.rows) == 0 {
			return nil
		}
		return &wal.Record{Kind: wal.KindRows, Tracker: name, Site: req.site,
			Dim: len(req.rows[0]), Rows: req.rows}
	}
	if len(req.items) == 0 {
		return nil
	}
	return &wal.Record{Kind: wal.KindItems, Tracker: name, Site: req.site, Items: req.items}
}

// applyLocked is the session mutation half of apply.
//
//distlint:caller-holds mu
func (t *Tracker) applyLocked(req ingestReq) error {
	if req.seq != 0 {
		// Wire stream block: dedup and gap-check against the site
		// watermark in the same critical section as the apply, so a
		// retransmitted block can never land twice. (A block the session
		// rejects — wrong dimension, bad site — fails before any row is
		// applied: the wire codec guarantees uniform row length, and a
		// msg-block is validated whole before any message is applied, so
		// there is no partial-apply state to retransmit into.)
		a := t.wm[req.site]
		if req.seq <= a {
			t.wireDups.Add(1)
			return nil
		}
		if req.seq != a+1 {
			return fmt.Errorf("service: wire stream gap at site %d: got block %d, want %d", req.site, req.seq, a+1)
		}
	}
	n, err := t.processLocked(req)
	if n > 0 {
		t.dirty = true
	}
	if req.seq != 0 && err == nil {
		t.wm[req.site] = req.seq
		t.wireRows.Add(int64(len(req.rows)))
		t.wireBlocks.Add(1)
	}
	return err
}

// processLocked runs one batch through the session — live ingest and WAL
// replay alike — and counts what it added: n is the rows/items (or P2
// messages) the session took (a mid-batch rejection keeps the entries
// before it), err the session's verdict. A tracker's feed is fixed by what
// it first applies: apply refuses rows once it has taken P2 messages, and
// applyMsgsLocked refuses messages once it has taken rows.
//
//distlint:caller-holds mu
func (t *Tracker) processLocked(req ingestReq) (n int64, err error) {
	if req.msgs != nil {
		return t.applyMsgsLocked(req.site, req.msgs)
	}
	before := t.sess.Count()
	switch {
	case req.rows != nil && req.site == AssignSite:
		err = t.sess.ProcessRows(req.rows)
	case req.rows != nil:
		err = t.sess.ProcessRowsAt(req.site, req.rows)
	case req.site == AssignSite:
		err = t.sess.ProcessItems(req.items)
	default:
		err = t.sess.ProcessItemsAt(req.site, req.items)
	}
	if n = t.sess.Count() - before; n > 0 {
		t.ingested.Add(n)
		t.batches.Add(1)
	}
	return n, err
}

// admit takes one of the manager's admission slots, pushing back with
// ErrBusy when every slot stays taken past the admission timeout.
func (t *Tracker) admit(ctx context.Context) error {
	select {
	case t.m.admission <- struct{}{}:
		return nil
	default:
	}
	// Full: only this slow path pays for a timer.
	timer := time.NewTimer(t.m.admitTimeout)
	defer timer.Stop()
	select {
	case t.m.admission <- struct{}{}:
		return nil
	case <-t.closed:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		t.rejected.Add(1)
		return ErrBusy
	}
}

// ingest applies one batch on the calling goroutine: the durability gate
// (direct/HTTP batches; wire blocks are not logged), admission, apply,
// and then the resident-cap sweep, as the queries run it on theirs. Once
// admitted the batch is applied whole or not at all, whatever becomes of
// ctx: req's buffers are the caller's again when ingest returns.
func (t *Tracker) ingest(ctx context.Context, req ingestReq) error {
	if t.wal != nil && req.seq == 0 {
		if err := gate(t.wal); err != nil {
			return err
		}
	}
	if err := t.admit(ctx); err != nil {
		return err
	}
	t.inflight.Add(1)
	err := t.apply(req)
	t.inflight.Add(-1)
	// Still admitted during the sweep: Manager.Close waits it out too.
	t.m.maybeEnforce()
	<-t.m.admission
	return err
}

// IngestRows ingests a batch of matrix rows at the given site (AssignSite
// routes through the session's assigner). On a WAL-enabled manager the
// batch is acknowledged only once it is fsync-durable; in degraded mode
// it fails fast with ErrDegraded.
func (t *Tracker) IngestRows(ctx context.Context, site int, rows [][]float64) error {
	return t.ingest(ctx, ingestReq{site: site, rows: rows})
}

// IngestItems ingests a batch of weighted items at the given site
// (AssignSite routes through the session's assigner). Durability matches
// IngestRows.
func (t *Tracker) IngestItems(ctx context.Context, site int, items []distmat.WeightedItem) error {
	return t.ingest(ctx, ingestReq{site: site, items: items})
}

// replayRecord re-applies one WAL record during recovery. Records at or
// below the restored checkpoint's WAL coverage are skipped — their
// effects are already in the state. A session rejection is returned for
// logging but leaves the tracker usable: the crashed instance hit the
// identical rejection when it first applied the record (replay is
// deterministic), so skipping reproduces its state exactly.
func (t *Tracker) replayRecord(rec *wal.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.LSN <= t.walLSN {
		return nil
	}
	t.walLSN, t.dirty = rec.LSN, true
	req := ingestReq{site: rec.Site}
	switch rec.Kind {
	case wal.KindRows:
		req.rows = rec.Rows
	case wal.KindItems:
		req.items = rec.Items
	default:
		return fmt.Errorf("service: wal replay: unexpected %v record", rec.Kind)
	}
	_, err := t.processLocked(req)
	return err
}

// IngestBlock applies one numbered wire-stream block at an explicit site.
// A seq at or below the site's applied watermark is dropped as a
// retransmitted duplicate (nil error); a seq past applied+1 is a stream
// gap and errors. A site's blocks arrive in order because one connection's
// serving goroutine applies each before it reads the next.
func (t *Tracker) IngestBlock(ctx context.Context, site int, seq uint64, rows [][]float64) error {
	return t.ingestBlock(ctx, ingestReq{site: site, seq: seq, rows: rows})
}

// ingestBlock applies one numbered wire-stream block of either kind.
func (t *Tracker) ingestBlock(ctx context.Context, req ingestReq) error {
	if req.seq == 0 {
		return fmt.Errorf("service: wire block seq must be positive")
	}
	if req.site < 0 {
		return fmt.Errorf("%w: site %d", distmat.ErrInvalidSite, req.site)
	}
	return t.ingest(ctx, req)
}

// SiteWatermarks returns a site's wire stream watermarks: applied (every
// block seq ≤ applied is in tracker state) and durable (every block
// seq ≤ durable is covered by a checkpoint file). Watermarks live in the
// stub, so asking a hibernated tracker does not fault it in.
func (t *Tracker) SiteWatermarks(site int) (applied, durable uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wm[site], t.wmDurable[site]
}

// Name returns the tracker's name.
func (t *Tracker) Name() string { return t.name }

// Spec returns the normalized spec the tracker was created from.
func (t *Tracker) Spec() Spec { return t.spec }

// Kind returns "matrix", "heavy-hitters", or "quantile".
func (t *Tracker) Kind() string { return t.spec.Kind }

// Persistable reports whether the tracker's session supports
// checkpointing.
func (t *Tracker) Persistable() bool { return t.persistable }

// Count returns the total rows/items in the session, including everything
// a restored checkpoint carried.
func (t *Tracker) Count() int64 { return t.baseCount + t.ingested.Load() }

// statsRelaxed returns the session's communication tally, taken under the
// tracker lock: composite trackers (e.g. windowed matrix sessions) sum
// sub-tracker tallies in plain fields, so the mutex-guarded accountant
// alone is not enough. On a sharded session it skips the merge barrier, so
// a /metrics scrape never stalls ingestion behind a shard pipeline drain
// (the tally may trail enqueued blocks by up to the lane depth), and a
// hibernated tracker answers from the tally cached at eviction (identical —
// only clean, idle trackers hibernate) instead of faulting its session in.
func (t *Tracker) statsRelaxed() distmat.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil {
		return t.hibStats
	}
	return t.sess.StatsRelaxed()
}

// read runs f on the session under the tracker lock, faulting a
// hibernated tracker back in first; a query that answers counts as a use.
func (t *Tracker) read(f func(*distmat.Session) error) error {
	t.mu.Lock()
	err := t.ensureSessionLocked()
	if err == nil {
		err = f(t.sess)
	}
	t.mu.Unlock()
	if err != nil {
		return err
	}
	t.touch()
	t.m.maybeEnforce()
	return nil
}

// Snapshot returns an immutable view of the session, taken under the
// tracker lock, faulting a hibernated tracker back in first.
func (t *Tracker) Snapshot() (snap distmat.Snapshot, err error) {
	err = t.read(func(s *distmat.Session) error {
		snap = s.Snapshot()
		return nil
	})
	return snap, err
}

// ItemTotals is the instant an item tracker's answer was cut at: the items
// the session had taken and its estimate Ŵ of the total weight.
type ItemTotals struct {
	Count int64
	Total float64
}

// QueryHeavyHitters answers the φ-heavy-hitters query together with the
// count and Ŵ it is consistent with, from one tracker-lock critical
// section: they describe the same instant even under concurrent ingestion.
func (t *Tracker) QueryHeavyHitters(phi float64) (hits []distmat.WeightedElement, at ItemTotals, err error) {
	err = t.read(func(s *distmat.Session) (err error) {
		if hits, err = s.HeavyHitters(phi); err == nil {
			at = ItemTotals{Count: s.Count(), Total: s.HH().EstimateTotal()}
		}
		return err
	})
	return hits, at, err
}

// QueryQuantiles answers a multi-φ quantile query together with the count
// and Ŵ, all from one tracker-lock critical section: cuts of one digest
// instant, monotone in φ and consistent with the count and Ŵ.
func (t *Tracker) QueryQuantiles(phis []float64) (vals []uint64, at ItemTotals, err error) {
	err = t.read(func(s *distmat.Session) (err error) {
		vals, at.Total, err = s.QueryQuantiles(phis)
		at.Count = s.Count()
		return err
	})
	return vals, at, err
}

// ShardInfo returns the tracker-level compute shard count (1 when
// unsharded) and the rows dealt to each shard (nil when unsharded), taken
// under the tracker lock. A hibernated tracker reports the shard count
// cached at eviction and nil rows.
func (t *Tracker) ShardInfo() (int, []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil {
		return t.hibShards, nil
	}
	return t.sess.Shards(), t.sess.ShardRows()
}

// QueueLen returns the number of ingest calls admitted and not yet
// answered (waiting for the tracker lock, applying, or awaiting the WAL
// group commit).
func (t *Tracker) QueueLen() int { return int(t.inflight.Load()) }

// LastCheckpoint returns the time of the last successful checkpoint (zero
// when never checkpointed) and the last checkpoint error ("" when clean).
func (t *Tracker) LastCheckpoint() (time.Time, string) {
	ns := t.lastCkpt.Load()
	var at time.Time
	if ns != 0 {
		at = time.Unix(0, ns)
	}
	return at, t.ckptErr.Load().(string)
}
