// Package quantile implements ε-approximate weighted quantiles over
// distributed streams: a deterministic, mergeable q-digest summary
// (Shrivastava et al., SenSys 2004, generalized to real-valued weights) and
// a distributed tracking protocol built on the same batched-summary
// skeleton as the paper's P1 — the quantile sibling of heavy-hitters
// tracking that the paper's related-work section discusses (Yi–Zhang track
// both with one protocol family).
//
// Guarantee: for any rank query q ∈ [0,1], the returned value v satisfies
//
//	rank(v) ∈ [qW − εW, qW + εW]
//
// where rank is the weighted rank in the stream and W the total weight.
package quantile

import (
	"fmt"
	"slices"
	"sort"
)

// QDigest is a weighted q-digest over the bounded universe [0, 2^bits).
// The digest stores weight against dyadic ranges of the universe; ranges
// are pushed toward the root by compression, which bounds the summary at
// O((bits/ε)) nodes while every value's weight stays within an ancestor
// range — so rank queries err by at most the compression budget εW.
type QDigest struct {
	bits uint // universe is [0, 1<<bits)
	eps  float64
	// counts maps a dyadic node id to its weight. Node ids follow the
	// standard heap convention: 1 is the root covering the whole universe,
	// node n has children 2n and 2n+1, and the leaves (at depth bits)
	// cover single values.
	counts map[uint64]float64
	weight float64
	// compressAt defers compression until the node count doubles, keeping
	// Update amortized O(1) map operations plus O(size) per compression.
	compressAt int
	// nodes is Compress's scratch node list, reused across calls; it is
	// not part of the digest's state (never serialized or compared).
	nodes []uint64
}

// CheckDigestParams reports whether (bits, eps) are valid q-digest
// parameters. The public facade turns a non-nil result into its typed
// configuration error; the panicking constructors funnel through it too.
func CheckDigestParams(bits uint, eps float64) error {
	if bits < 1 || bits > 62 {
		return fmt.Errorf("quantile: need 1 ≤ bits ≤ 62, got %d", bits)
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("quantile: need 0 < ε < 1, got %v", eps)
	}
	return nil
}

// NewQDigest builds a digest for values in [0, 2^bits) with rank error εW.
func NewQDigest(bits uint, eps float64) *QDigest {
	if err := CheckDigestParams(bits, eps); err != nil {
		panic(err.Error())
	}
	return &QDigest{
		bits:       bits,
		eps:        eps,
		counts:     make(map[uint64]float64),
		compressAt: 64,
	}
}

// Bits returns the universe size exponent.
func (q *QDigest) Bits() uint { return q.bits }

// Eps returns the rank error parameter.
func (q *QDigest) Eps() float64 { return q.eps }

// Weight returns the total inserted weight.
func (q *QDigest) Weight() float64 { return q.weight }

// Size returns the number of stored nodes.
func (q *QDigest) Size() int { return len(q.counts) }

// leaf returns the node id of the leaf covering value v.
func (q *QDigest) leaf(v uint64) uint64 { return (uint64(1) << q.bits) | v }

// Update inserts value v with weight w.
func (q *QDigest) Update(v uint64, w float64) {
	if v >= uint64(1)<<q.bits {
		panic(fmt.Sprintf("quantile: value %d outside universe [0, 2^%d)", v, q.bits))
	}
	if w < 0 {
		panic(fmt.Sprintf("quantile: negative weight %v", w))
	}
	if w == 0 {
		return
	}
	q.counts[q.leaf(v)] += w
	q.weight += w
	if len(q.counts) >= q.compressAt {
		q.Compress()
	}
}

// Compress enforces the q-digest size bound: any node whose subtree triple
// (node + sibling + parent) carries less than the per-node budget
// εW/bits is merged into its parent. Compression only moves weight to
// ancestors, which is what keeps rank error one-sided per node and ≤ εW in
// total.
func (q *QDigest) Compress() {
	if q.weight == 0 {
		return
	}
	budget := q.eps * q.weight / float64(q.bits)
	// Process deepest nodes first (descending id) so freed weight can
	// cascade upward.
	nodes := q.nodes[:0]
	for n := range q.counts {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	q.nodes = nodes
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n <= 1 {
			continue // the root absorbs everything
		}
		c, ok := q.counts[n]
		if !ok {
			continue // already merged as a sibling
		}
		sib := n ^ 1
		parent := n >> 1
		total := c + q.counts[sib] + q.counts[parent]
		if total < budget {
			q.counts[parent] = total
			delete(q.counts, n)
			delete(q.counts, sib)
		}
	}
	q.compressAt = 2 * (len(q.counts) + 32)
}

// depth returns the depth of node n (root = 0, leaves = bits).
func depth(n uint64) uint {
	d := uint(0)
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}

// rangeOf returns the universe interval [lo, hi] covered by node n.
func (q *QDigest) rangeOf(n uint64) (lo, hi uint64) {
	d := depth(n)
	span := uint64(1) << (q.bits - d)
	idx := n - (uint64(1) << d) // position among depth-d nodes
	lo = idx * span
	return lo, lo + span - 1
}

// Quantile returns a value whose weighted rank approximates phi·W within
// ±εW. phi ∈ [0, 1].
func (q *QDigest) Quantile(phi float64) uint64 {
	if phi < 0 || phi > 1 {
		panic(fmt.Sprintf("quantile: need 0 ≤ φ ≤ 1, got %v", phi))
	}
	if len(q.counts) == 0 {
		return 0
	}
	// Order nodes by (hi, depth descending): the standard q-digest
	// post-order traversal, so accumulating weights scans values in
	// nondecreasing order of their upper bounds.
	type entry struct {
		node   uint64
		hi     uint64
		d      uint
		weight float64
	}
	entries := make([]entry, 0, len(q.counts))
	for n, c := range q.counts {
		_, hi := q.rangeOf(n)
		entries = append(entries, entry{node: n, hi: hi, d: depth(n), weight: c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].hi != entries[j].hi {
			return entries[i].hi < entries[j].hi
		}
		return entries[i].d > entries[j].d
	})
	target := phi * q.weight
	var acc float64
	for _, e := range entries {
		acc += e.weight
		if acc >= target {
			return e.hi
		}
	}
	return entries[len(entries)-1].hi
}

// RankBounds returns lower and upper bounds on the weighted rank of value v
// (the weight of items ≤ v). The true rank lies in [lo, hi], and
// hi − lo ≤ εW after compression.
func (q *QDigest) RankBounds(v uint64) (lo, hi float64) {
	for n, c := range q.counts {
		nlo, nhi := q.rangeOf(n)
		switch {
		case nhi <= v:
			lo += c
			hi += c
		case nlo <= v:
			hi += c // straddling range: may or may not be ≤ v
		}
	}
	return lo, hi
}

// Merge folds other into q. Both digests must share bits; the error
// parameters add in the usual mergeable-summary sense (each digest's
// compression debt is bounded by its own εW share). The sketch-level merge
// panics on a universe mismatch like every other invalid-argument path in
// this package; Tracker.AccumulateInto is the error-returning boundary the
// service-reachable shard merges go through.
func (q *QDigest) Merge(other *QDigest) {
	if q.bits != other.bits {
		panic(fmt.Sprintf("quantile: merge digests with bits %d and %d", other.bits, q.bits))
	}
	q.absorb(other)
	q.Compress()
}

// absorb adds other's nodes and weight without compressing. The sharded
// merged query view uses it directly so a one-shard tracker's view is
// node-for-node identical to the shard's own digest (compressing here
// would add fresh compression debt the unsharded tracker doesn't have).
func (q *QDigest) absorb(other *QDigest) {
	for n, c := range other.counts {
		q.counts[n] += c
	}
	q.weight += other.weight
}

// Reset clears the digest.
func (q *QDigest) Reset() {
	q.counts = make(map[uint64]float64)
	q.weight = 0
	q.compressAt = 64
}
