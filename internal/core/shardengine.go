package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// ShardEngine is the one deal/barrier/failure machine behind every sharded
// tracker. It owns everything about sharding that does not depend on what
// is being tracked: the site-to-shard rule, chunking, the pooled block
// copy, the workers and their bounded queues, the flush barrier, the
// first-panic capture, Close, the per-shard tallies and their
// save/restore. What differs between matrix rows and weighted items — the
// chunk size, element validation, how a block is copied into a pooled
// buffer and how it is applied to a shard — is a shardKind, called once per
// block. A sharded answer is the in-shard-order sum of the shard answers
// (Gram addition, estimate addition, q-digest absorption); that sum lives
// with the wrapper that embeds the engine (ShardedTracker, hh.Sharded,
// quantile.Sharded), where the summed bound Σ ε‖A_k‖²_F = ε‖A‖²_F (or
// Σ εW_k = εW) is argued.
//
// A shard owns sites: site j of the tracker's m is site ⌊j/P⌋ of shard
// j mod P, so shard k runs its protocol over shardSites(m, P, k) =
// ⌈(m−k)/P⌉ sites. Its thresholds, (ε/m_k)·F̂_k with F̂_k ≈ F̂/P, are then
// about a single tracker's (ε/m)·F̂, and the P shards together send what
// one tracker over all m sites sends — O((m/ε)·log βN) messages for matrix
// P2 — not P times that; and as each site's state lives on one shard, a
// sharded P2 holds (m + P)·d² Gram floats, not P·(m + 1)·d². A new engine
// runs min(P, m) shards, so every shard owns a site.
//
// Shards are state; workers are cores: an engine runs W = min(P,
// GOMAXPROCS) workers (read when it is built or restored), and shard k's
// blocks, tagged with k, go in deal order through the one FIFO queue of
// worker k mod W, so no shard's state depends on W.
//
// Ingestion: Deal validates the whole block synchronously in the caller (an
// invalid site or element panics before anything is enqueued, so a
// rejected block never partially applies), splits it into chunks that bound
// the staging copy, copies each chunk into a pooled buffer (the caller may
// reuse its slices immediately) and enqueues it on the bounded queue of the
// worker that serves the block's shard, which provides backpressure when
// the workers fall behind. Queries flush first: a barrier waits for every
// queued block to be applied.
//
// Determinism: the shard a block lands on depends only on its site and P —
// never on the goroutine schedule or W — so results are reproducible for a
// fixed seed and shard count. They DO depend on P (each P groups the sites
// differently); P = 1 is the unsharded tracker.
//
// An engine is driven by one goroutine at a time (the parallelism is
// internal); wrap it in internal/service for a concurrent ingestion
// surface. Call Close when done to stop the workers; a closed engine still
// answers queries but panics on further ingestion.
type ShardEngine[S ShardStats, E any] struct {
	kind    shardKind[S, E]
	shards  []S
	m       int                  // sites: site j is site j/P of shard j%P
	queues  []chan shardBlock[E] // one per worker: shard k's on queues[k%W]
	workers sync.WaitGroup
	// dirty[w] is set by a deal to worker w and cleared by its barrier: a
	// flush waits only on the workers dealt to since the last one, so a
	// block from one site costs one barrier, and a Snapshot that reads
	// Stats, Gram and EstimateFrobenius waits on none after the first.
	dirty  []bool
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
	// chunk bounds the elements per staged copy: a larger block goes to
	// its shard as several chunks, in order.
	chunk() int
	// validate panics unless every element of blk is acceptable.
	validate(blk []E)
	// stage copies blk into buf, leaving buf.elems the staged block and
	// growing buf's backing arrays only past their high-water mark.
	stage(buf *stageBuf[E], blk []E)
	// apply runs one staged block from the shard's local site through the
	// shard, on that shard's worker.
	apply(shard S, site int, blk []E)
}

// stageBuf is a pooled copy target, recycled through ShardEngine.free so
// the steady-state deal path allocates nothing. flat backs element types
// that are themselves slices (matrix rows); it stays nil for flat elements.
type stageBuf[E any] struct {
	elems []E
	flat  []float64
}

// shardBlock is one unit of work for a worker: either a staged block from
// one of a shard's local sites, or a barrier (buf nil), whose channel the
// worker closes once every earlier block on its queue has been applied.
type shardBlock[E any] struct {
	shard   int
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

// shardSites returns how many of m sites shard k of p owns: ⌈(m−k)/p⌉,
// the sites j < m with j ≡ k (mod p).
func shardSites(m, p, k int) int { return (m - k + p - 1) / p }

// buildShards calls build once per shard index with that shard's site
// count, over min(p, m) shards, panicking on an invalid shard or site count
// or a nil shard.
func buildShards[S any](p, m int, build func(shard, sites int) S) []S {
	if err := CheckShards(p); err != nil {
		panic(err.Error())
	}
	if err := stream.CheckSites(m); err != nil {
		panic("core: sharded tracker: " + err.Error())
	}
	p = min(p, m)
	shards := make([]S, p)
	for i := range shards {
		shards[i] = build(i, shardSites(m, p, i))
		if any(shards[i]) == nil {
			panic(fmt.Sprintf("core: sharded tracker: build(%d) returned nil", i))
		}
	}
	return shards
}

// newShardEngine wires min(P, GOMAXPROCS) workers and their queues around
// existing shards over m sites (the restore paths reuse it with
// deserialized shards). The workers start immediately and stop at Close.
func newShardEngine[S ShardStats, E any](shards []S, m int, kind shardKind[S, E]) *ShardEngine[S, E] {
	w := min(len(shards), runtime.GOMAXPROCS(0))
	e := &ShardEngine[S, E]{
		kind:   kind,
		shards: shards,
		m:      m,
		queues: make([]chan shardBlock[E], w),
		dirty:  make([]bool, w),
		dealt:  make([]atomic.Int64, len(shards)),
		// One buffer per queue slot plus the one being staged: the pool
		// never holds more than can be in flight.
		free: make(chan *stageBuf[E], w*shardQueueDepth+1),
	}
	for i := range e.queues {
		e.queues[i] = make(chan shardBlock[E], shardQueueDepth)
		e.workers.Add(1)
		go e.worker(e.queues[i])
	}
	return e
}

// worker drains one queue q, applying each block to its shard in order. A
// panic from a shard is captured once; later blocks drain unapplied and
// barriers still release, so the caller observes the panic at its next
// flush instead of a deadlock.
func (e *ShardEngine[S, E]) worker(q <-chan shardBlock[E]) {
	defer e.workers.Done()
	for blk := range q {
		if blk.barrier != nil {
			close(blk.barrier)
			continue
		}
		if e.failed() == nil {
			e.apply(blk)
		}
		select {
		case e.free <- blk.buf:
		default: // pool full: let the extra buffer go to the GC
		}
	}
}

// apply runs one block through its shard, capturing a panic as the engine's
// terminal failure.
func (e *ShardEngine[S, E]) apply(blk shardBlock[E]) {
	defer func() {
		if r := recover(); r != nil {
			e.failMu.Lock()
			if e.failure == nil {
				e.failure = r
			}
			e.failMu.Unlock()
		}
	}()
	e.kind.apply(e.shards[blk.shard], blk.site, blk.buf.elems)
}

// failed returns the first worker panic, nil while healthy.
func (e *ShardEngine[S, E]) failed() any {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failure
}

// ShardCount returns P, the number of parallel shards.
func (e *ShardEngine[S, E]) ShardCount() int { return len(e.shards) }

// Sites returns m, the tracker's site count, which the shards divide.
func (e *ShardEngine[S, E]) Sites() int { return e.m }

// Shard returns shard i. The caller must not touch it while ingestion is in
// flight; use it after a flushing call (Flush, Stats) or after Close.
func (e *ShardEngine[S, E]) Shard(i int) S { return e.shards[i] }

// ShardRows returns how many elements (rows or items) have been dealt to
// each shard — for shard k, those from sites ≡ k (mod P) — the per-shard
// ingest tally the service layer reports. Safe to call concurrently with
// queries from the driving goroutine's lock, not with ingestion itself.
func (e *ShardEngine[S, E]) ShardRows() []int64 {
	out := make([]int64, len(e.dealt))
	for i := range out {
		out[i] = e.dealt[i].Load()
	}
	return out
}

// RestoreTallies sets the per-shard tallies to checkpointed values. dealt
// may be nil (tallies reset).
func (e *ShardEngine[S, E]) RestoreTallies(dealt []int64) error {
	if dealt != nil && len(dealt) != len(e.shards) {
		return fmt.Errorf("core: sharded snapshot has %d tallies for %d shards", len(dealt), len(e.shards))
	}
	for i := range e.dealt {
		var n int64
		if dealt != nil {
			n = dealt[i]
		}
		e.dealt[i].Store(n)
	}
	return nil
}

// Deal validates site and blk and enqueues blk on the shard that owns
// site, as that shard's local site, in chunks of at most kind.chunk()
// elements. It returns once every chunk is enqueued; a query flushes.
func (e *ShardEngine[S, E]) Deal(site int, blk []E) {
	validateSite(site, e.m)
	e.kind.validate(blk)
	p := len(e.shards)
	shard, local := site%p, site/p
	for chunk := e.kind.chunk(); len(blk) > chunk; blk = blk[chunk:] {
		e.deal(shard, local, blk[:chunk])
	}
	e.deal(shard, local, blk)
}

// deal stages one chunk and enqueues it on the queue of shard's worker.
//
//distlint:hotpath
func (e *ShardEngine[S, E]) deal(shard, site int, blk []E) {
	if len(blk) == 0 {
		return
	}
	if e.closed {
		panic("core: sharded tracker is closed")
	}
	w := shard % len(e.queues)
	e.dealt[shard].Add(int64(len(blk)))
	e.dirty[w] = true
	e.queues[w] <- shardBlock[E]{shard: shard, site: site, buf: e.stage(blk)}
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
// be applied and returns the first worker panic (nil while healthy). Only
// the workers dealt to since the last flush get a barrier: every other
// queue is already empty.
func (e *ShardEngine[S, E]) FlushErr() any {
	if !e.closed {
		var barriers []chan struct{}
		for i, dirty := range e.dirty {
			if dirty {
				b := make(chan struct{})
				e.queues[i] <- shardBlock[E]{barrier: b}
				barriers = append(barriers, b)
				e.dirty[i] = false
			}
		}
		for _, b := range barriers {
			<-b
		}
	}
	return e.failed()
}

// Close flushes outstanding work and stops the workers. The engine
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
// tally covers every dealt block. Each shard runs its protocol over its own
// sites only, so the sum is about what one tracker over all m sites sends.
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
// in shard order, the site count m as the envelope records it, and the
// per-shard tallies; sites reads a shard snapshot's own site count. The
// recorded m is 0 when shard 0 has all m sites — P = 1, or a tracker
// restored from a checkpoint written when every shard ran all m sites — so
// such a tracker saves the envelope it was restored from.
func SnapshotShards[S ShardStats, E, T any](e *ShardEngine[S, E], snap func(shard S) (T, error), sites func(T) int) (shards []T, m int, dealt []int64, err error) {
	if r := e.FlushErr(); r != nil {
		return nil, 0, nil, fmt.Errorf("sharded tracker failed during ingest: %v", r)
	}
	shards = make([]T, len(e.shards))
	for i, shard := range e.shards {
		if shards[i], err = snap(shard); err != nil {
			return nil, 0, nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if m = e.m; sites(shards[0]) == m {
		m = 0
	}
	return shards, m, e.ShardRows(), nil
}

// RestoreShards is the restore half of the envelope: m = 0 stands for
// shard 0's own site count (see SnapshotShards); every shard k must have at
// least the shardSites(m, P, k) sites the deal routes to it; restore
// rebuilds each shard (and checks it against shard 0); wire starts a
// tracker around them over m sites; and the tallies are restored. A
// rejected envelope stops the freshly started workers before returning the
// error.
func RestoreShards[T, S any, W interface {
	RestoreTallies(dealt []int64) error
	Close()
}](snaps []T, m int, dealt []int64, sites func(T) int, restore func(snap T) (S, error), wire func(m int, shards []S) W) (w W, err error) {
	p := len(snaps)
	if err := CheckShards(p); err != nil {
		return w, err
	}
	if m == 0 {
		m = sites(snaps[0])
	}
	if err := stream.CheckSites(m); err != nil {
		return w, err
	}
	shards := make([]S, p)
	for i, snap := range snaps {
		if got, need := sites(snap), shardSites(m, p, i); got < need {
			return w, fmt.Errorf("shard %d has %d sites, needs %d of %d", i, got, need, m)
		}
		if shards[i], err = restore(snap); err != nil {
			return w, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	tr := wire(m, shards)
	if err := tr.RestoreTallies(dealt); err != nil {
		tr.Close()
		return w, err
	}
	return tr, nil
}
