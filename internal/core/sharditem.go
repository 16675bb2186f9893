package core

import (
	"fmt"

	"repro/internal/gen"
)

// ItemShard is the per-shard surface of a sharded item tracker: one
// weighted-item ingest call plus the mutex-guarded communication tally.
// Both the heavy-hitters protocols (internal/hh) and the quantile tracker
// (internal/quantile) satisfy it; their packages embed the engine and add
// the protocol-specific merged query views.
type ItemShard interface {
	ShardStats
	Process(site int, elem uint64, weight float64)
}

// BoundedUniverse is implemented by item shards whose elements must lie in
// [0, 2^Bits()) — the quantile tracker's value universe. The engine then
// rejects out-of-universe elements synchronously at Deal, instead of
// letting them poison a shard worker.
type BoundedUniverse interface {
	Bits() uint
}

// itemKind is the engine instantiation for weighted items with elements in
// [0, 2^bits) (bits = 64: any uint64).
type itemKind[S ItemShard] struct{ bits uint }

// chunk: items are 16 bytes and the per-item tracker work is a few map
// operations, so chunks are larger than the matrix kind's 256 rows to
// amortize the channel hop.
func (itemKind[S]) chunk() int { return 1024 }

func (k itemKind[S]) validate(items []gen.WeightedItem) {
	for _, it := range items {
		if !gen.ValidWeight(it.Weight) {
			panic(fmt.Sprintf("core: sharded item tracker: need positive finite weight, got %v", it.Weight))
		}
		if it.Elem>>k.bits != 0 {
			panic(fmt.Sprintf("core: sharded item tracker: element %d outside universe [0, 2^%d)", it.Elem, k.bits))
		}
	}
}

//distlint:hotpath
func (itemKind[S]) stage(buf *stageBuf[gen.WeightedItem], items []gen.WeightedItem) {
	buf.elems = append(buf.elems[:0], items...) //distlint:alloc-ok grows only to a new high-water block size
}

func (itemKind[S]) apply(shard S, site int, items []gen.WeightedItem) {
	for _, it := range items {
		shard.Process(site, it.Elem, it.Weight)
	}
}

// NewShardedItemTracker starts an engine dealing weighted items from m
// sites across min(p, m) shard instances produced by build, called once per
// shard with the shard index (derive per-shard seeds from it for
// randomized protocols) and the shard's site count ⌈(m−shard)/P⌉.
func NewShardedItemTracker[S ItemShard](p, m int, build func(shard, sites int) S) *ShardEngine[S, gen.WeightedItem] {
	return ItemEngine(m, buildShards(p, m, build))
}

// ItemEngine starts an engine dealing weighted items from m sites across
// existing shards — the restore paths' constructor, which keeps the shard
// count a checkpoint carries.
func ItemEngine[S ItemShard](m int, shards []S) *ShardEngine[S, gen.WeightedItem] {
	kind := itemKind[S]{bits: 64}
	if b, ok := any(shards[0]).(BoundedUniverse); ok {
		kind.bits = b.Bits()
	}
	return newShardEngine(shards, m, kind)
}
