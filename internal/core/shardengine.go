package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// ShardEngine is the one deal/barrier/failure machine behind every sharded
// tracker. It owns everything about sharding that does not depend on what
// is being tracked: the round-robin deal cursor, chunking, the pooled block
// copy, one bounded queue and worker per shard, the flush barrier, the
// first-panic capture, Close, the per-shard tallies, and the deal-state
// save/restore. What differs between matrix rows and weighted items — the
// chunk size, input validation, how a block is copied into a pooled buffer
// and how it is applied to a shard — is a shardKind, called once per block.
// What "merge" means (Gram addition, MG merge, q-digest accumulation) lives
// with the wrapper that embeds the engine (ShardedTracker, hh.Sharded,
// quantile.Sharded), where the summed bound Σ ε‖A_k‖²_F = ε‖A‖²_F (or
// Σ εW_k = εW) is argued.
//
// Ingestion: Deal validates the whole block synchronously in the caller (an
// invalid element panics before anything is enqueued, so a rejected block
// never partially applies), splits it into chunks, copies each chunk into a
// pooled buffer (the caller may reuse its slices immediately) and enqueues
// it on the next shard's bounded queue, which provides backpressure when
// the workers fall behind. Queries flush first: a barrier waits for every
// queued block to be applied.
//
// Determinism: the shard a block lands on depends only on the sequence of
// Deal calls and P — never on the goroutine schedule — so results are
// reproducible for a fixed seed and shard count. They DO depend on P (each
// P partitions the stream differently).
//
// An engine is driven by one goroutine at a time (the parallelism is
// internal); wrap it in internal/service for a concurrent ingestion
// surface. Call Close when done to stop the workers; a closed engine still
// answers queries but panics on further ingestion.
type ShardEngine[S ShardStats, E any] struct {
	kind    shardKind[S, E]
	shards  []S
	queues  []chan shardBlock[E]
	workers sync.WaitGroup
	next    int // round-robin deal cursor
	// dirty is set by deal and cleared by the barrier: with nothing dealt
	// since the last flush every queue is empty, so a Snapshot that reads
	// Stats, Gram and EstimateFrobenius waits on one barrier, not three.
	dirty  bool
	dealt  []atomic.Int64
	free   chan *stageBuf[E]
	closed bool

	// failure holds the first worker panic; subsequent blocks are drained
	// unapplied and the panic re-raises on the next flush, so a failed
	// worker never deadlocks the caller.
	failMu  sync.Mutex
	failure any //distlint:guarded-by failMu
}

// ShardStats is what the engine needs from a shard: its mutex-guarded
// communication tally, safe to read while the worker runs.
type ShardStats interface {
	Stats() stream.Stats
}

// shardKind is one instantiation of the engine: everything that depends on
// the element type. Every method runs once per block, never per element,
// and none may touch the engine's own state.
type shardKind[S, E any] interface {
	// chunk bounds the elements per dealt block: larger blocks are split so
	// a single big Deal still spreads across all shards.
	chunk() int
	// validate panics unless site and every element of blk are acceptable.
	validate(site int, blk []E)
	// stage copies blk into buf, leaving buf.elems the staged block and
	// growing buf's backing arrays only past their high-water mark.
	stage(buf *stageBuf[E], blk []E)
	// apply runs one staged block through a shard, on that shard's worker.
	apply(shard S, site int, blk []E)
}

// stageBuf is a pooled copy target, recycled through ShardEngine.free so
// the steady-state deal path allocates nothing. flat backs element types
// that are themselves slices (matrix rows); it stays nil for flat elements.
type stageBuf[E any] struct {
	elems []E
	flat  []float64
}

// shardBlock is one unit of work for a shard worker: either a staged block
// or a barrier (buf nil), whose channel the worker closes once every
// earlier block on its queue has been applied.
type shardBlock[E any] struct {
	site    int
	buf     *stageBuf[E]
	barrier chan struct{}
}

// shardQueueDepth is the per-worker bounded-channel capacity, in blocks:
// deep enough to pipeline past merge barriers, shallow enough that
// backpressure reaches the caller instead of buffering unboundedly.
const shardQueueDepth = 8

// CheckShards reports whether p is a valid shard count.
func CheckShards(p int) error {
	if p < 1 {
		return fmt.Errorf("core: need ≥ 1 shard, got %d", p)
	}
	return nil
}

// buildShards calls build once per shard index, panicking on an invalid
// shard count or a nil shard.
func buildShards[S any](p int, build func(shard int) S) []S {
	if err := CheckShards(p); err != nil {
		panic(err.Error())
	}
	shards := make([]S, p)
	for i := range shards {
		shards[i] = build(i)
		if any(shards[i]) == nil {
			panic(fmt.Sprintf("core: sharded tracker: build(%d) returned nil", i))
		}
	}
	return shards
}

// newShardEngine wires the queues and workers around existing shards (the
// restore paths reuse it with deserialized shards). The workers start
// immediately and stop at Close.
func newShardEngine[S ShardStats, E any](shards []S, kind shardKind[S, E]) *ShardEngine[S, E] {
	e := &ShardEngine[S, E]{
		kind:   kind,
		shards: shards,
		queues: make([]chan shardBlock[E], len(shards)),
		dealt:  make([]atomic.Int64, len(shards)),
		// One buffer per queue slot plus the one being staged: the pool
		// never holds more than can be in flight.
		free: make(chan *stageBuf[E], len(shards)*shardQueueDepth+1),
	}
	for i := range e.queues {
		e.queues[i] = make(chan shardBlock[E], shardQueueDepth)
		e.workers.Add(1)
		go e.worker(i)
	}
	return e
}

// worker drains one shard's queue, applying blocks in order. A panic from
// the shard is captured once; later blocks drain unapplied and barriers
// still release, so the caller observes the panic at its next flush instead
// of a deadlock.
func (e *ShardEngine[S, E]) worker(i int) {
	defer e.workers.Done()
	for blk := range e.queues[i] {
		if blk.barrier != nil {
			close(blk.barrier)
			continue
		}
		if e.failed() == nil {
			e.apply(e.shards[i], blk)
		}
		select {
		case e.free <- blk.buf:
		default: // pool full: let the extra buffer go to the GC
		}
	}
}

// apply runs one block through its shard, capturing a panic as the engine's
// terminal failure.
func (e *ShardEngine[S, E]) apply(shard S, blk shardBlock[E]) {
	defer func() {
		if r := recover(); r != nil {
			e.failMu.Lock()
			if e.failure == nil {
				e.failure = r
			}
			e.failMu.Unlock()
		}
	}()
	e.kind.apply(shard, blk.site, blk.buf.elems)
}

// failed returns the first worker panic, nil while healthy.
func (e *ShardEngine[S, E]) failed() any {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failure
}

// ShardCount returns P, the number of parallel shards.
func (e *ShardEngine[S, E]) ShardCount() int { return len(e.shards) }

// Shard returns shard i. The caller must not touch it while ingestion is in
// flight; use it after a flushing call (Flush, Stats) or after Close.
func (e *ShardEngine[S, E]) Shard(i int) S { return e.shards[i] }

// ShardRows returns how many elements (rows or items) have been dealt to
// each shard — the per-shard ingest tally the service layer reports. Safe
// to call concurrently with queries from the driving goroutine's lock, not
// with ingestion itself.
func (e *ShardEngine[S, E]) ShardRows() []int64 {
	out := make([]int64, len(e.dealt))
	for i := range out {
		out[i] = e.dealt[i].Load()
	}
	return out
}

// RestoreDeal rewinds the deal cursor and per-shard tallies to a
// checkpointed position, so a restored engine deals the next block to the
// same shard the saved one would have. dealt may be nil (tallies reset).
func (e *ShardEngine[S, E]) RestoreDeal(next int, dealt []int64) error {
	p := len(e.shards)
	if next < 0 || next >= p {
		return fmt.Errorf("core: sharded snapshot deal cursor %d outside [0,%d)", next, p)
	}
	if dealt != nil && len(dealt) != p {
		return fmt.Errorf("core: sharded snapshot has %d tallies for %d shards", len(dealt), p)
	}
	e.next = next
	for i := range e.dealt {
		var n int64
		if dealt != nil {
			n = dealt[i]
		}
		e.dealt[i].Store(n)
	}
	return nil
}

// Deal validates blk, splits it into chunks of at most kind.chunk()
// elements, and deals the chunks round-robin to the shard workers. It
// returns once every chunk is enqueued; a query flushes.
func (e *ShardEngine[S, E]) Deal(site int, blk []E) {
	e.kind.validate(site, blk)
	for chunk := e.kind.chunk(); len(blk) > chunk; blk = blk[chunk:] {
		e.deal(site, blk[:chunk])
	}
	e.deal(site, blk)
}

// deal stages one chunk and enqueues it on the next shard's queue.
//
//distlint:hotpath
func (e *ShardEngine[S, E]) deal(site int, blk []E) {
	if len(blk) == 0 {
		return
	}
	if e.closed {
		panic("core: sharded tracker is closed")
	}
	shard := e.next
	e.next = (e.next + 1) % len(e.shards)
	e.dealt[shard].Add(int64(len(blk)))
	e.dirty = true
	e.queues[shard] <- shardBlock[E]{site: site, buf: e.stage(blk)}
}

// stage copies blk into a pooled buffer, so the caller regains ownership of
// its slices as soon as Deal returns.
//
//distlint:hotpath
func (e *ShardEngine[S, E]) stage(blk []E) *stageBuf[E] {
	var buf *stageBuf[E]
	select {
	case buf = <-e.free:
	default:
		buf = &stageBuf[E]{} //distlint:alloc-ok pool miss: grows the pool
	}
	e.kind.stage(buf, blk)
	return buf
}

// Flush is the merge barrier: it waits until every dealt block has been
// applied, then re-raises any worker panic in the caller — matching the
// unsharded trackers, whose ingest panics surface synchronously. A closed
// engine has no in-flight work, so Flush is a no-op. Paths that must not
// crash background goroutines (checkpointing) use FlushErr instead.
func (e *ShardEngine[S, E]) Flush() {
	if r := e.FlushErr(); r != nil {
		panic(r)
	}
}

// FlushErr is the non-panicking barrier: it waits for every dealt block to
// be applied and returns the first worker panic (nil while healthy). With
// nothing dealt since the last flush there is nothing to wait for.
func (e *ShardEngine[S, E]) FlushErr() any {
	if e.dirty && !e.closed {
		barriers := make([]chan struct{}, len(e.queues))
		for i := range e.queues {
			barriers[i] = make(chan struct{})
			e.queues[i] <- shardBlock[E]{barrier: barriers[i]}
		}
		for _, b := range barriers {
			<-b
		}
		e.dirty = false
	}
	return e.failed()
}

// Close flushes outstanding work and stops the shard workers. The engine
// still answers queries from the final state; further ingestion panics.
// Close is idempotent.
func (e *ShardEngine[S, E]) Close() {
	if e.closed {
		return
	}
	// Flush without re-panicking: Close must release the workers even after
	// a shard failure; the failure surfaces on the next query instead.
	e.FlushErr()
	e.closed = true
	for _, q := range e.queues {
		close(q)
	}
	e.workers.Wait()
}

// Stats sums the shard tallies in shard order after a flush barrier, so the
// tally covers every dealt block. Each shard runs its own protocol
// instance, so sharded communication grows by up to a factor of P over a
// single tracker on the same stream.
func (e *ShardEngine[S, E]) Stats() stream.Stats {
	e.Flush()
	return e.StatsApplied()
}

// StatsApplied sums the shard tallies WITHOUT the flush barrier: the tally
// covers blocks the workers have applied so far and may trail enqueued work
// by up to the queue depth. It is the monitoring read — safe while the
// workers run because every shard's Stats reads a mutex-guarded accountant
// (custom shard implementations must match that contract) — and never
// stalls ingestion behind a pipeline drain.
func (e *ShardEngine[S, E]) StatsApplied() stream.Stats {
	var s stream.Stats
	for _, shard := range e.shards {
		s.Add(shard.Stats())
	}
	return s
}

// SnapshotShards is the save half of the sharded-snapshot envelope every
// persistable wrapper shares: a non-panicking flush (a poisoned tracker
// yields an error here, not a crashed checkpointer), one snapshot per shard
// in shard order, the deal cursor and the per-shard tallies.
func SnapshotShards[S ShardStats, E, T any](e *ShardEngine[S, E], snap func(shard S) (T, error)) (shards []T, next int, dealt []int64, err error) {
	if r := e.FlushErr(); r != nil {
		return nil, 0, nil, fmt.Errorf("sharded tracker failed during ingest: %v", r)
	}
	shards = make([]T, len(e.shards))
	for i, shard := range e.shards {
		if shards[i], err = snap(shard); err != nil {
			return nil, 0, nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return shards, e.next, e.ShardRows(), nil
}

// RestoreShards is the restore half of the envelope: every shard is rebuilt
// by restore (which also checks it against shard 0), wire starts a tracker
// around them, and the deal state is rewound. A rejected envelope stops the
// freshly started workers before returning the error.
func RestoreShards[T, S any, W interface {
	RestoreDeal(next int, dealt []int64) error
	Close()
}](snaps []T, next int, dealt []int64, restore func(snap T) (S, error), wire func([]S) W) (w W, err error) {
	if err := CheckShards(len(snaps)); err != nil {
		return w, err
	}
	shards := make([]S, len(snaps))
	for i, snap := range snaps {
		if shards[i], err = restore(snap); err != nil {
			return w, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	tr := wire(shards)
	if err := tr.RestoreDeal(next, dealt); err != nil {
		tr.Close()
		return w, err
	}
	return tr, nil
}
