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
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/gen"
)

// QDigest is a weighted q-digest over the bounded universe [0, 2^bits).
// The digest stores weight against dyadic ranges of the universe; ranges
// are pushed toward the root by compression, which bounds the summary at
// O((bits/ε)) nodes while every value's weight stays within an ancestor
// range — so rank queries err by at most the compression budget εW.
type QDigest struct {
	bits uint // universe is [0, 1<<bits)
	eps  float64
	// A node is a dyadic range with a weight. Node ids follow the standard
	// heap convention: 1 is the root covering the whole universe, node n
	// has children 2n and 2n+1, and the leaves (at depth bits) cover single
	// values. Each stored node is in exactly one of nodes, kept sorted by
	// id, and fresh, which holds only the leaves first seen since nodes was
	// last rebuilt — so Update is one binary search plus either an in-place
	// add or one map operation, and never shifts the array.
	nodes  []node
	fresh  map[uint64]float64
	weight float64
	// compressAt defers compression until the node count doubles. A
	// Compress costs O(k + f log f) for k stored nodes of which f are
	// fresh: it sorts only the fresh keys, then makes one linear pass.
	compressAt int
	// born and spare are Compress's and absorb's scratch, reused across
	// calls; they are not part of the digest's state (never serialized or
	// compared).
	born, spare []node
}

type node struct {
	id uint64
	w  float64
}

// dead marks a node merged away during Compress's pass. Ids stay below
// 2^(bits+1) ≤ 2^63, so the top bit is free, and a marked id still sorts
// above every id the pass has yet to look up.
const dead = uint64(1) << 63

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
		fresh:      make(map[uint64]float64),
		compressAt: 64,
	}
}

// Bits returns the universe size exponent.
func (q *QDigest) Bits() uint { return q.bits }

// Eps returns the rank error parameter.
func (q *QDigest) Eps() float64 { return q.eps }

// Size returns the number of stored nodes.
func (q *QDigest) Size() int { return len(q.nodes) + len(q.fresh) }

// leaf returns the node id of the leaf covering value v.
func (q *QDigest) leaf(v uint64) uint64 { return (uint64(1) << q.bits) | v }

// Update inserts value v with weight w. A zero weight is a no-op; a
// negative, NaN or infinite one panics.
func (q *QDigest) Update(v uint64, w float64) {
	if v >= uint64(1)<<q.bits {
		panic(fmt.Sprintf("quantile: value %d outside universe [0, 2^%d)", v, q.bits))
	}
	if w == 0 {
		return
	}
	if !gen.ValidWeight(w) {
		panic(fmt.Sprintf("quantile: need positive finite weight, got %v", w))
	}
	q.add(q.leaf(v), w)
	q.weight += w
	if q.Size() >= q.compressAt {
		q.Compress()
	}
}

// add adds w to node id's weight: in place if id is in nodes, else in fresh.
func (q *QDigest) add(id uint64, w float64) {
	if i, ok := slices.BinarySearchFunc(q.nodes, id, func(nd node, id uint64) int { return cmp.Compare(nd.id, id) }); ok {
		q.nodes[i].w += w
	} else {
		q.fresh[id] += w
	}
}

func byID(a, b node) int { return cmp.Compare(a.id, b.id) }

// sortedFresh returns fresh's nodes in id order, in dst's storage.
func (q *QDigest) sortedFresh(dst []node) []node {
	for id, w := range q.fresh {
		dst = append(dst, node{id, w})
	}
	slices.SortFunc(dst, byID)
	return dst
}

// fold moves fresh into nodes, sorting only the fresh keys.
func (q *QDigest) fold() {
	if len(q.fresh) == 0 {
		return
	}
	f := q.sortedFresh(q.born[:0])
	q.nodes, q.spare = mergeNodes(q.spare[:0], q.nodes, f), q.nodes
	q.born = f[:0]
	clear(q.fresh)
}

// mergeNodes appends the id-ordered union of a and b, both sorted by id,
// to dst; an id in both gets weight a + b.
func mergeNodes(dst, a, b []node) []node {
	for len(a) > 0 && len(b) > 0 {
		switch x, y := a[0], b[0]; {
		case x.id < y.id:
			dst = append(dst, x)
			a = a[1:]
		case x.id > y.id:
			dst = append(dst, y)
			b = b[1:]
		default:
			dst = append(dst, node{x.id, x.w + y.w})
			a, b = a[1:], b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
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
	q.fold()
	budget := q.eps * q.weight / float64(q.bits)
	// Process deepest nodes first (descending id) so freed weight can
	// cascade upward. A parent born during the pass goes to born, not
	// nodes, and is not visited until the next call. A node's sibling is
	// its neighbour in nodes or else a parent in born; born descends, and
	// so do the siblings looked up there (a node whose sibling is stored
	// above it finds it adjacent), so cursor b only moves down. Its parent,
	// when stored, is always in nodes, found by cursor p, which only moves
	// down because the parents of descending ids descend too.
	nodes, born := q.nodes, q.born[:0]
	p, b := len(nodes)-1, 0
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i].id
		if n <= 1 || n&dead != 0 {
			continue // the root absorbs everything; or already merged as a sibling
		}
		sib, parent := n^1, n>>1
		var s *node
		switch {
		case n&1 == 1 && i > 0 && nodes[i-1].id == sib:
			s = &nodes[i-1]
		case n&1 == 0 && i+1 < len(nodes) && nodes[i+1].id == sib:
			s = &nodes[i+1]
		default:
			for b < len(born) && born[b].id > sib {
				b++
			}
			if b < len(born) && born[b].id == sib {
				s = &born[b]
			}
		}
		for p >= 0 && nodes[p].id > parent {
			p--
		}
		hasParent := p >= 0 && nodes[p].id == parent
		var sw, pw float64
		if s != nil {
			sw = s.w
		}
		if hasParent {
			pw = nodes[p].w
		}
		total := nodes[i].w + sw + pw
		if total < budget {
			nodes[i].id |= dead
			if s != nil {
				s.id |= dead // before the append below can move born
			}
			if hasParent {
				nodes[p].w = total
			} else {
				born = append(born, node{parent, total})
			}
		}
	}
	q.rebuild(born)
	q.compressAt = 2 * (len(q.nodes) + 32)
}

// rebuild drops Compress's dead nodes and merges in its surviving newborn
// parents.
func (q *QDigest) rebuild(born []node) {
	live := q.nodes[:0]
	for _, nd := range q.nodes {
		if nd.id&dead == 0 {
			live = append(live, nd)
		}
	}
	up := born[:0]
	for _, nd := range born {
		if nd.id&dead == 0 {
			up = append(up, nd)
		}
	}
	q.born = born[:0]
	if len(up) == 0 {
		q.nodes = live
		return
	}
	slices.Reverse(up)
	q.nodes, q.spare = mergeNodes(q.spare[:0], live, up), live
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
// ±εW. phi ∈ [0, 1]. It is Quantiles with one φ.
func (q *QDigest) Quantile(phi float64) uint64 {
	var v [1]uint64
	return q.Quantiles([]float64{phi}, v[:0])[0]
}

// Quantiles appends Quantile(φ) for each φ of phis (each in [0, 1]) to out
// from one ordered pass: nodes sorted and weights summed into a running
// rank once, then per φ a binary search for the first node whose rank
// reaches φ·W — the node a scan stops at, as the rank never falls.
func (q *QDigest) Quantiles(phis []float64, out []uint64) []uint64 {
	for _, phi := range phis {
		if phi < 0 || phi > 1 {
			panic(fmt.Sprintf("quantile: need 0 ≤ φ ≤ 1, got %v", phi))
		}
	}
	// Order nodes by (hi, depth descending): the standard q-digest
	// post-order traversal, so accumulating weights scans values in
	// nondecreasing order of their upper bounds. The key is unique per node.
	type entry struct {
		hi   uint64
		d    uint
		rank float64 // the node's weight, then the running sum through it
	}
	entries := make([]entry, 0, q.Size())
	visit := func(n uint64, c float64) {
		_, hi := q.rangeOf(n)
		entries = append(entries, entry{hi: hi, d: depth(n), rank: c})
	}
	for _, nd := range q.nodes {
		visit(nd.id, nd.w)
	}
	for n, c := range q.fresh {
		visit(n, c)
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		return cmp.Compare(b.d, a.d)
	})
	var acc float64
	for i := range entries {
		acc += entries[i].rank
		entries[i].rank = acc
	}
	for _, phi := range phis {
		// No node's rank reaches a NaN target (0·+Inf): a scan ends on the last.
		target, v := phi*q.weight, uint64(0)
		if k := sort.Search(len(entries), func(k int) bool { return entries[k].rank >= target }); len(entries) > 0 {
			v = entries[min(k, len(entries)-1)].hi
		}
		out = append(out, v)
	}
	return out
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

// absorb adds other's nodes and weight without compressing: a merge-join of
// the two sorted arrays, then other's fresh leaves one by one. The sharded
// merged query view uses it directly so a one-shard tracker's view is
// node-for-node identical to the shard's own digest (compressing here
// would add fresh compression debt the unsharded tracker doesn't have).
func (q *QDigest) absorb(other *QDigest) {
	q.fold()
	if len(other.nodes) > 0 {
		q.nodes, q.spare = mergeNodes(q.spare[:0], q.nodes, other.nodes), q.nodes
	}
	for n, c := range other.fresh {
		q.add(n, c)
	}
	q.weight += other.weight
}

// Reset clears the digest. fresh is replaced, not cleared: a map never
// shrinks, and every later fold would walk a burst's capacity.
func (q *QDigest) Reset() {
	q.nodes = q.nodes[:0]
	q.fresh = make(map[uint64]float64)
	q.weight = 0
	q.compressAt = 64
}
