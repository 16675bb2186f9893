package core

import (
	"fmt"

	"repro/internal/matrix"
)

// ShardedTracker scales matrix ingestion across cores by sharding the
// stream over P independent tracker instances and merging their state at
// query time: the row instantiation of ShardEngine, which owns the deal,
// the barrier, the failure capture and Close. It is the concurrency
// counterpart of the blocked fast ingest mode: the fast path removed the
// per-row linear algebra, and sharding removes the single-core ceiling by
// running P block pipelines at once. Each shard is a complete tracker with
// its own private scratch (eigendecomposition workspaces, row-norm buffers), so
// workers never contend on shared state.
//
// Queries: Gram, EstimateFrobenius, and Stats first flush, then merge shard
// state in shard order — Gram addition through the allocation-free
// GramAccumulator fast path where the shard supports it (P1's
// FD.AccumulateGram, P2's coordinator Gram), Gram()+AddSym otherwise. The
// merge is sound because the paper's protocols answer with additive Grams
// and additive error bounds: shard k tracks its sub-stream A_k with
// ‖A_kᵀA_k − B_kᵀB_k‖₂ ≤ ε‖A_k‖²_F, and summing over shards gives
// ‖AᵀA − BᵀB‖₂ ≤ ε·Σ‖A_k‖²_F = ε‖A‖²_F — the same covariance guarantee, now
// holding at every merge point (query). Message tallies sum across shards:
// each shard runs its own protocol instance, so the communication bound
// scales by up to P. The merge is an ordered sum, so with the engine's
// deterministic deal results are reproducible for a fixed seed and shard
// count.
type ShardedTracker struct {
	*ShardEngine[Tracker, []float64]
	m, d int
	eps  float64
}

// rowKind is the engine instantiation for matrix rows: blocks of d-vectors
// from one of m sites (m < 0: the shard protocol does not expose its site
// count, and site validation happens inside the shard).
type rowKind struct{ m, d int }

// chunk: 256 rows amortize the channel hop and copy well below the
// per-block eigendecomposition cost at the paper's dimensions.
func (rowKind) chunk() int { return 256 }

func (k rowKind) validate(site int, rows [][]float64) {
	if k.m >= 0 {
		validateSite(site, k.m)
	}
	validateRows(rows, k.d)
}

// stage copies rows into one flat backing array behind reusable row
// headers.
//
//distlint:hotpath
func (k rowKind) stage(buf *stageBuf[[]float64], rows [][]float64) {
	need := len(rows) * k.d
	if cap(buf.flat) < need {
		buf.flat = make([]float64, need) //distlint:alloc-ok pool growth to the new high-water block size
	}
	if cap(buf.elems) < len(rows) {
		buf.elems = make([][]float64, len(rows)) //distlint:alloc-ok pool growth to the new high-water block size
	}
	buf.elems = buf.elems[:len(rows)]
	for i, row := range rows {
		buf.elems[i] = buf.flat[i*k.d : (i+1)*k.d]
		copy(buf.elems[i], row)
	}
}

func (rowKind) apply(tr Tracker, site int, rows [][]float64) { ProcessRows(tr, site, rows) }

// GramAccumulator is implemented by trackers that can fold w times their
// coordinator Gram estimate into dst without allocating — the merge fast
// path ShardedTracker uses at query time. Every deterministic tracker in
// this package implements it; samplers fall back to Gram()+AddSym.
type GramAccumulator interface {
	AccumulateGram(dst *matrix.Sym, w float64)
}

// SiteCounter is implemented by trackers that expose their site count m,
// letting wrappers validate site indices synchronously. Every tracker in
// this package implements it.
type SiteCounter interface {
	Sites() int
}

// NewShardedTracker builds a sharded tracker over p shard instances
// produced by build (called once per shard with the shard index; derive
// per-shard seeds from it for randomized protocols). All shards must agree
// on dimension; the shards' own parameters are otherwise free. The workers
// start immediately.
func NewShardedTracker(p int, build func(shard int) Tracker) *ShardedTracker {
	return newShardedFromTrackers(buildShards(p, build))
}

// newShardedFromTrackers starts an engine around existing shard trackers
// (the restore path reuses it with deserialized shards).
func newShardedFromTrackers(shards []Tracker) *ShardedTracker {
	st := &ShardedTracker{m: -1, d: shards[0].Dim(), eps: shards[0].Eps()}
	for i, t := range shards {
		if t.Dim() != st.d {
			panic(fmt.Sprintf("core: sharded tracker: shard %d has dim %d, shard 0 has %d", i, t.Dim(), st.d))
		}
	}
	if sc, ok := shards[0].(SiteCounter); ok {
		st.m = sc.Sites()
	}
	st.ShardEngine = newShardEngine(shards, rowKind{m: st.m, d: st.d})
	return st
}

// Name implements Tracker.
func (st *ShardedTracker) Name() string {
	return fmt.Sprintf("Sharded(%s,%d)", st.Shard(0).Name(), st.ShardCount())
}

// Dim implements Tracker.
func (st *ShardedTracker) Dim() int { return st.d }

// Eps implements Tracker.
func (st *ShardedTracker) Eps() float64 { return st.eps }

// Sites implements SiteCounter (−1 when the shard protocol does not expose
// its site count).
func (st *ShardedTracker) Sites() int { return st.m }

// ProcessRow implements Tracker: the row becomes a one-row block. Sharding
// pays off with batch feeds; per-row feeds work but spend a channel hop per
// row.
func (st *ShardedTracker) ProcessRow(site int, row []float64) {
	st.Deal(site, [][]float64{row})
}

// ProcessRows implements BatchTracker over the engine's Deal: validated up
// front, chunked, dealt round-robin; it returns once every chunk is
// enqueued.
func (st *ShardedTracker) ProcessRows(site int, rows [][]float64) { st.Deal(site, rows) }

// Gram implements Tracker: the ordered sum of the shard estimates, through
// the allocation-free GramAccumulator merge where the shard supports it.
func (st *ShardedTracker) Gram() *matrix.Sym {
	st.Flush()
	g := matrix.NewSym(st.d)
	for _, tr := range st.shards {
		if acc, ok := tr.(GramAccumulator); ok {
			acc.AccumulateGram(g, 1)
		} else {
			g.AddSym(tr.Gram())
		}
	}
	return g
}

// EstimateFrobenius implements Tracker: the sum of shard estimates.
func (st *ShardedTracker) EstimateFrobenius() float64 {
	st.Flush()
	var f float64
	for _, tr := range st.shards {
		f += tr.EstimateFrobenius()
	}
	return f
}

var (
	_ BatchTracker = (*ShardedTracker)(nil)
	_ SiteCounter  = (*ShardedTracker)(nil)
)
