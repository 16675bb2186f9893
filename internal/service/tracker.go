package service

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	distmat "repro"
	"repro/internal/wal"
)

// AssignSite routes a batch through the session's site assigner (the
// paper's arrival model) instead of an explicit site.
const AssignSite = -1

// ingestReq is one enqueued batch. Exactly one of rows/items is set; done
// (buffered) receives the apply result. seq, when non-zero, is the wire
// stream's block number: apply dedups against the site's watermark and
// advances it atomically with the session mutation.
type ingestReq struct {
	site  int // explicit site, or AssignSite
	seq   uint64
	rows  [][]float64
	items []distmat.WeightedItem
	done  chan error
}

// Tracker is one hosted session: a named tracker plus its mailbox into
// the manager's shared worker pool and its counters. All methods are
// safe for concurrent use.
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

	m        *Manager // owning manager: worker pool, hibernation, fault-in
	laneBase uint64   // per-tracker seed of the (tracker, site) → lane hash

	// mu guards sess and dirty. Ingestion applies batches under mu from
	// the pool workers; queries take it only for the snapshot. sess is
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

	// dur, when set (WAL-enabled manager, persistable tracker), write-ahead
	// logs every direct/HTTP batch before it is applied. walLSN is the
	// LSN of the tracker's last own log record — staged in the same mu
	// critical section as the apply, so a checkpoint captured under mu
	// records exactly the log prefix its state contains; every advance
	// also sets dirty. walCkpt is the walLSN the last durable checkpoint
	// file covers: the tracker's WAL compaction floor while it trails
	// walLSN, and the cursor a fault-in checks the file against (a stub's
	// walLSN equals it — see tenancy.go).
	dur *durability
	//distlint:guarded-by mu
	walLSN  uint64
	walCkpt atomic.Uint64

	closed     chan struct{}
	closeOnce  sync.Once
	rr         atomic.Uint64 // round-robin lane cursor for assigner batches
	enqTimeout time.Duration

	// inflight counts batches handed to the pool whose reply has not been
	// sent yet; close drains it to zero before releasing the session.
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
	// deleted (distinct from closed: Close stops workers and *then*
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
}

// newTracker wires a tracker around an existing session. The tracker
// owns no goroutines: its batches ride the manager's shared worker pool.
func newTracker(m *Manager, name string, spec Spec, sess *distmat.Session) *Tracker {
	t := &Tracker{
		name:       name,
		spec:       spec,
		created:    time.Now(),
		baseCount:  sess.Count(),
		m:          m,
		laneBase:   laneBase(name),
		sess:       sess,
		wm:         make(map[int]uint64),
		wmDurable:  make(map[int]uint64),
		closed:     make(chan struct{}),
		enqTimeout: m.opts.EnqueueTimeout,
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

// close stops the tracker: no new batches are accepted, every batch
// already handed to the pool gets its reply (applied, or ErrClosed if it
// had not started), and the session is closed so a sharded tracker's
// compute workers stop too (flushing their in-flight blocks first, so a
// final checkpoint after close persists every applied batch). The
// session pointer is kept: Manager.Close checkpoints after closing, and
// SaveState on a closed session still serializes its final state.
func (t *Tracker) close() {
	t.closeOnce.Do(func() {
		close(t.closed)
		// Drain the pool: inflight hits zero once every dispatched batch
		// has been answered, after which no pool worker touches sess.
		for t.inflight.Load() > 0 {
			time.Sleep(50 * time.Microsecond)
		}
		// Under mu: a periodic checkpoint may still be serializing state.
		t.mu.Lock()
		if t.sess != nil {
			t.sess.Close()
		}
		t.mu.Unlock()
	})
}

// serve runs one dispatched batch on a pool worker, replying on the
// request's buffered done channel, and then lets the manager enforce the
// resident cap — after the reply, so eviction I/O never sits in a
// batch's acknowledgement latency.
func (t *Tracker) serve(req ingestReq) {
	select {
	case <-t.closed:
		req.done <- ErrClosed
		t.inflight.Add(-1)
		return
	default:
	}
	req.done <- t.apply(req)
	t.inflight.Add(-1)
	t.m.maybeEnforce()
}

// apply ingests one batch. Row batches flow through the session's blocked
// batch path (Session.ProcessRows(At) hands whole same-site blocks to the
// tracker's BatchTracker fast path), so a posted batch costs one blocked
// ingest, not a per-row loop. On a mid-batch error the preceding entries
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
	if err := t.ensureSessionLocked(); err != nil {
		t.mu.Unlock()
		return err
	}
	var walLSN uint64
	logged := false
	if t.dur != nil && req.seq == 0 {
		if rec := walRecord(t.name, req); rec != nil {
			lsn, err := t.dur.stage(rec)
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
		if derr := t.dur.waitDurable(walLSN); derr != nil {
			return derr
		}
	}
	return err
}

// walRecord builds the WAL record for one batch, or nil for an empty
// batch (nothing to replay).
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
	items := make([]wal.Item, len(req.items))
	for i, it := range req.items {
		items[i] = wal.Item{Elem: it.Elem, Weight: it.Weight}
	}
	return &wal.Record{Kind: wal.KindItems, Tracker: name, Site: req.site, Items: items}
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
		// applied: the wire codec guarantees uniform row length, so there
		// is no partial-apply state to retransmit into.)
		a := t.wm[req.site]
		if req.seq <= a {
			t.wireDups.Add(1)
			return nil
		}
		if req.seq != a+1 {
			return fmt.Errorf("service: wire stream gap at site %d: got block %d, want %d", req.site, req.seq, a+1)
		}
	}
	before := t.sess.Count()
	var err error
	switch {
	case req.rows != nil:
		if req.site == AssignSite {
			err = t.sess.ProcessRows(req.rows)
		} else {
			err = t.sess.ProcessRowsAt(req.site, req.rows)
		}
	default:
		if req.site == AssignSite {
			err = t.sess.ProcessItems(req.items)
		} else {
			err = t.sess.ProcessItemsAt(req.site, req.items)
		}
	}
	if n := t.sess.Count() - before; n > 0 {
		t.ingested.Add(n)
		t.batches.Add(1)
		t.dirty = true
	}
	if req.seq != 0 && err == nil {
		t.wm[req.site] = req.seq
		t.wireRows.Add(int64(len(req.rows)))
		t.wireBlocks.Add(1)
	}
	return err
}

// lane picks the pool lane for a batch: explicit sites hash (tracker,
// site) to a fixed lane, preserving per-site order end to end; assigner
// batches round-robin across lanes.
func (t *Tracker) lane(site int) chan poolReq {
	lanes := t.m.pool.lanes
	if site >= 0 {
		return lanes[laneMix(t.laneBase, site)%uint64(len(lanes))]
	}
	return lanes[t.rr.Add(1)%uint64(len(lanes))]
}

// enqueue dispatches a batch onto the shared pool and waits for it to be
// applied. A lane that stays full past the enqueue timeout pushes back
// with ErrBusy.
//
// answered reports that the batch's reply was received, which is the only
// proof no pool worker still reads req.rows/req.items: callers that lend
// pooled buffers (the HTTP handlers) may recycle them only then. On the
// closed and ctx.Done early returns the batch may be queued or mid-apply.
func (t *Tracker) enqueue(ctx context.Context, req ingestReq) (answered bool, err error) {
	lane := t.lane(req.site)
	req.done = make(chan error, 1)
	t.inflight.Add(1)
	select {
	case lane <- poolReq{t: t, req: req}:
	case <-t.closed:
		t.inflight.Add(-1)
		return false, ErrClosed
	default:
		// Lane full: only this slow path pays for a timer.
		timer := time.NewTimer(t.enqTimeout)
		defer timer.Stop()
		select {
		case lane <- poolReq{t: t, req: req}:
		case <-t.closed:
			t.inflight.Add(-1)
			return false, ErrClosed
		case <-ctx.Done():
			t.inflight.Add(-1)
			return false, ctx.Err()
		case <-timer.C:
			t.inflight.Add(-1)
			t.rejected.Add(1)
			return false, ErrBusy
		}
	}
	select {
	case err := <-req.done:
		return true, err
	case <-t.closed:
		return false, ErrClosed
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// ingest is IngestRows/IngestItems over a prepared request: the durability
// gate, then enqueue (whose answered result it passes on).
func (t *Tracker) ingest(ctx context.Context, req ingestReq) (answered bool, err error) {
	if t.dur != nil {
		if err := t.dur.gate(); err != nil {
			return false, err
		}
	}
	return t.enqueue(ctx, req)
}

// IngestRows ingests a batch of matrix rows at the given site (AssignSite
// routes through the session's assigner). On a WAL-enabled manager the
// batch is acknowledged only once it is fsync-durable; in degraded mode
// it fails fast with ErrDegraded.
func (t *Tracker) IngestRows(ctx context.Context, site int, rows [][]float64) error {
	_, err := t.ingest(ctx, ingestReq{site: site, rows: rows})
	return err
}

// IngestItems ingests a batch of weighted items at the given site
// (AssignSite routes through the session's assigner). Durability matches
// IngestRows.
func (t *Tracker) IngestItems(ctx context.Context, site int, items []distmat.WeightedItem) error {
	_, err := t.ingest(ctx, ingestReq{site: site, items: items})
	return err
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
	before := t.sess.Count()
	var err error
	switch rec.Kind {
	case wal.KindRows:
		if rec.Site == AssignSite {
			err = t.sess.ProcessRows(rec.Rows)
		} else {
			err = t.sess.ProcessRowsAt(rec.Site, rec.Rows)
		}
	case wal.KindItems:
		items := make([]distmat.WeightedItem, len(rec.Items))
		for i, it := range rec.Items {
			items[i] = distmat.WeightedItem{Elem: it.Elem, Weight: it.Weight}
		}
		if rec.Site == AssignSite {
			err = t.sess.ProcessItems(items)
		} else {
			err = t.sess.ProcessItemsAt(rec.Site, items)
		}
	default:
		return fmt.Errorf("service: wal replay: unexpected %v record", rec.Kind)
	}
	if n := t.sess.Count() - before; n > 0 {
		t.ingested.Add(n)
		t.batches.Add(1)
	}
	return err
}

// IngestBlock applies one numbered wire-stream block at an explicit site.
// A seq at or below the site's applied watermark is dropped as a
// retransmitted duplicate (nil error); a seq past applied+1 is a stream
// gap and errors. Explicit sites hash to a fixed pool lane, so blocks
// stay in per-site FIFO order end to end.
func (t *Tracker) IngestBlock(ctx context.Context, site int, seq uint64, rows [][]float64) error {
	if seq == 0 {
		return fmt.Errorf("service: wire block seq must be positive")
	}
	if site < 0 {
		return fmt.Errorf("%w: site %d", distmat.ErrInvalidSite, site)
	}
	_, err := t.enqueue(ctx, ingestReq{site: site, seq: seq, rows: rows})
	return err
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

// Ingested returns the number of rows/items applied since the tracker was
// created or restored.
func (t *Tracker) Ingested() int64 { return t.ingested.Load() }

// Count returns the total rows/items in the session, including everything
// a restored checkpoint carried.
func (t *Tracker) Count() int64 { return t.baseCount + t.ingested.Load() }

// Stats returns the session's communication tally, taken under the
// tracker lock: composite trackers (e.g. windowed matrix sessions) sum
// sub-tracker tallies in plain fields, so the mutex-guarded accountant
// alone is not enough. A hibernated tracker answers from the tally
// cached at eviction (identical — only clean, idle trackers hibernate)
// without faulting the session in.
func (t *Tracker) Stats() distmat.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil {
		return t.hibStats
	}
	return t.sess.Stats()
}

// statsRelaxed is the monitoring variant of Stats: on a sharded session it
// skips the merge barrier, so a /metrics scrape never stalls ingestion
// behind a shard pipeline drain (the tally may trail enqueued blocks by up
// to the lane depth), and a hibernated tracker answers from the stub's
// cache instead of faulting its session in.
func (t *Tracker) statsRelaxed() distmat.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil {
		return t.hibStats
	}
	return t.sess.StatsRelaxed()
}

// Snapshot returns an immutable view of the session, taken under the
// tracker lock, faulting a hibernated tracker back in first.
func (t *Tracker) Snapshot() (distmat.Snapshot, error) {
	t.mu.Lock()
	if err := t.ensureSessionLocked(); err != nil {
		t.mu.Unlock()
		return distmat.Snapshot{}, err
	}
	snap := t.sess.Snapshot()
	t.mu.Unlock()
	t.touch()
	t.m.maybeEnforce()
	return snap, nil
}

// HeavyHitters answers the paper's φ-heavy-hitters query.
func (t *Tracker) HeavyHitters(phi float64) ([]distmat.WeightedElement, error) {
	hits, _, err := t.QueryHeavyHitters(phi)
	return hits, err
}

// QueryHeavyHitters answers the φ-heavy-hitters query together with the
// snapshot it is consistent with, from one tracker-lock critical
// section: the hits and the snapshot's count/total describe the same
// instant even under concurrent ingestion.
func (t *Tracker) QueryHeavyHitters(phi float64) ([]distmat.WeightedElement, distmat.Snapshot, error) {
	t.mu.Lock()
	if err := t.ensureSessionLocked(); err != nil {
		t.mu.Unlock()
		return nil, distmat.Snapshot{}, err
	}
	hits, err := t.sess.HeavyHitters(phi)
	if err != nil {
		t.mu.Unlock()
		return nil, distmat.Snapshot{}, err
	}
	snap := t.sess.Snapshot()
	t.mu.Unlock()
	t.touch()
	t.m.maybeEnforce()
	return hits, snap, nil
}

// Quantile answers a φ-quantile query.
func (t *Tracker) Quantile(phi float64) (uint64, error) {
	vals, _, err := t.QueryQuantiles([]float64{phi})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// QueryQuantiles answers a multi-φ quantile query together with the
// snapshot it is consistent with, all from one tracker-lock critical
// section: the values are cuts of a single digest instant, so they are
// monotone in φ and consistent with the snapshot's count/total.
func (t *Tracker) QueryQuantiles(phis []float64) ([]uint64, distmat.Snapshot, error) {
	t.mu.Lock()
	if err := t.ensureSessionLocked(); err != nil {
		t.mu.Unlock()
		return nil, distmat.Snapshot{}, err
	}
	vals := make([]uint64, len(phis))
	for i, phi := range phis {
		v, err := t.sess.Quantile(phi)
		if err != nil {
			t.mu.Unlock()
			return nil, distmat.Snapshot{}, err
		}
		vals[i] = v
	}
	snap := t.sess.Snapshot()
	t.mu.Unlock()
	t.touch()
	t.m.maybeEnforce()
	return vals, snap, nil
}

// SaveState serializes the session's persistence stream to w under the
// tracker lock, faulting a hibernated tracker back in first — so the
// stream a stub produces is exactly what its checkpoint restores to
// (compare with distmat.StateEqual).
func (t *Tracker) SaveState(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ensureSessionLocked(); err != nil {
		return err
	}
	return t.sess.SaveState(w)
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

// QueueLen returns the number of batches dispatched to the pool and not
// yet answered (queued in a lane or mid-apply).
func (t *Tracker) QueueLen() int {
	n := t.inflight.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

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
