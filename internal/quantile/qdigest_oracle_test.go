package quantile

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/stream"
)

// oracleQDigest is the map-backed q-digest that QDigest's id-sorted node
// array replaced, kept verbatim as the specification: every state the new
// digest reaches must be Float64bits-identical to this one's after the same
// operations (TestTrackerMatchesOracle, FuzzQDigestOracle), and
// TestQDigestGuard holds the new one to a floor over it.
type oracleQDigest struct {
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

func newOracleQDigest(bits uint, eps float64) *oracleQDigest {
	if err := CheckDigestParams(bits, eps); err != nil {
		panic(err.Error())
	}
	return &oracleQDigest{
		bits:       bits,
		eps:        eps,
		counts:     make(map[uint64]float64),
		compressAt: 64,
	}
}

func (q *oracleQDigest) Weight() float64 { return q.weight }

func (q *oracleQDigest) Size() int { return len(q.counts) }

func (q *oracleQDigest) leaf(v uint64) uint64 { return (uint64(1) << q.bits) | v }

func (q *oracleQDigest) Update(v uint64, w float64) {
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

func (q *oracleQDigest) Compress() {
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

func (q *oracleQDigest) rangeOf(n uint64) (lo, hi uint64) {
	d := depth(n)
	span := uint64(1) << (q.bits - d)
	idx := n - (uint64(1) << d) // position among depth-d nodes
	lo = idx * span
	return lo, lo + span - 1
}

func (q *oracleQDigest) Quantile(phi float64) uint64 {
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

func (q *oracleQDigest) Merge(other *oracleQDigest) {
	if q.bits != other.bits {
		panic(fmt.Sprintf("quantile: merge digests with bits %d and %d", other.bits, q.bits))
	}
	q.absorb(other)
	q.Compress()
}

func (q *oracleQDigest) absorb(other *oracleQDigest) {
	for n, c := range other.counts {
		q.counts[n] += c
	}
	q.weight += other.weight
}

func (q *oracleQDigest) Reset() {
	q.counts = make(map[uint64]float64)
	q.weight = 0
	q.compressAt = 64
}

func (q *oracleQDigest) Snapshot() QDigestSnapshot {
	counts := make(map[uint64]float64, len(q.counts))
	for n, c := range q.counts {
		counts[n] = c
	}
	return QDigestSnapshot{
		Bits: q.bits, Eps: q.eps, Weight: q.weight, Counts: counts,
		CompressAt: q.compressAt,
	}
}

// restoreOracleQDigest is RestoreQDigest's state transfer without its
// validation: the oracle only ever restores snapshots the live digest
// accepted.
func restoreOracleQDigest(snap QDigestSnapshot) *oracleQDigest {
	q := &oracleQDigest{
		bits:   snap.Bits,
		eps:    snap.Eps,
		weight: snap.Weight,
		counts: make(map[uint64]float64, len(snap.Counts)),
	}
	for n, c := range snap.Counts {
		q.counts[n] = c
	}
	q.compressAt = snap.CompressAt
	if q.compressAt <= 0 {
		q.compressAt = 2 * (len(q.counts) + 32)
	}
	return q
}

// oracleTracker is Tracker's P1 skeleton over the oracle digest: the same
// ship rule, merge and Ŵ broadcast, so a tracker-shaped ship sequence can be
// replayed on both digests.
type oracleTracker struct {
	m      int
	eps    float64
	acct   *stream.Accountant
	sites  []oracleSite
	merged *oracleQDigest
	tally  float64
	what   float64
}

type oracleSite struct {
	digest *oracleQDigest
	weight float64
}

func newOracleTracker(m int, eps float64, bits uint) *oracleTracker {
	t := &oracleTracker{
		m: m, eps: eps, acct: stream.NewAccountant(m), sites: make([]oracleSite, m),
		merged: newOracleQDigest(bits, eps/2), what: 1,
	}
	for i := range t.sites {
		t.sites[i].digest = newOracleQDigest(bits, eps/2)
	}
	return t
}

func (t *oracleTracker) Process(site int, value uint64, w float64) {
	s := &t.sites[site]
	s.digest.Update(value, w)
	s.weight += w
	if s.weight >= (t.eps/(2*float64(t.m)))*t.what {
		s.digest.Compress()
		t.acct.SendUpN(max(s.digest.Size(), 1), 1)
		t.merged.Merge(s.digest)
		t.tally += s.weight
		s.digest.Reset()
		s.weight = 0
		if t.tally/t.what > 1+t.eps/2 {
			t.what = t.tally
			t.acct.Broadcast(1)
		}
	}
}

// sameState reports the first way q differs from its oracle: ids and
// Float64bits of every node weight, the total, compressAt, Size,
// Quantile at five φ and Quantiles over seven, out of order and one twice.
// It also checks q's own invariants: nodes strictly
// ascending with no dead mark, fresh disjoint from nodes.
func sameState(q *QDigest, o *oracleQDigest) error {
	for i, nd := range q.nodes {
		if nd.id&dead != 0 || (i > 0 && q.nodes[i-1].id >= nd.id) {
			return fmt.Errorf("nodes not strictly ascending and live at %d: %#x after %#x", i, nd.id, q.nodes[max(i-1, 0)].id)
		}
	}
	for n := range q.fresh {
		if _, ok := slices.BinarySearchFunc(q.nodes, n, func(nd node, id uint64) int { return cmp.Compare(nd.id, id) }); ok {
			return fmt.Errorf("node %d both fresh and sorted", n)
		}
	}
	got := q.sorted()
	ids := make([]uint64, 0, len(o.counts))
	for n := range o.counts {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	if len(got) != len(ids) || q.Size() != o.Size() {
		return fmt.Errorf("%d nodes (Size %d), oracle %d", len(got), q.Size(), len(ids))
	}
	for i, n := range ids {
		if got[i].id != n || math.Float64bits(got[i].w) != math.Float64bits(o.counts[n]) {
			return fmt.Errorf("node %d: (%d, %v), oracle (%d, %v)", i, got[i].id, got[i].w, n, o.counts[n])
		}
	}
	if math.Float64bits(q.weight) != math.Float64bits(o.weight) || q.compressAt != o.compressAt {
		return fmt.Errorf("weight %v compressAt %d, oracle %v %d", q.weight, q.compressAt, o.weight, o.compressAt)
	}
	for _, phi := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if a, b := q.Quantile(phi), o.Quantile(phi); a != b {
			return fmt.Errorf("Quantile(%v) = %d, oracle %d", phi, a, b)
		}
	}
	phis := []float64{0.9, 0, 0.5, 1, 0.25, 0.5, 0.1}
	for i, v := range q.Quantiles(phis, nil) {
		if b := o.Quantile(phis[i]); v != b {
			return fmt.Errorf("Quantiles(%v)[%d] = %d, oracle Quantile(%v) %d", phis, i, v, phis[i], b)
		}
	}
	return nil
}

// tenancyItems is the durable-tenancy benchmark's quantile stream shape:
// Zipf(2) values over a 2^16 universe, weights uniform in [1, 1000].
func tenancyItems(n int, seed int64) []gen.WeightedItem {
	return gen.ZipfStream(gen.ZipfConfig{N: n, Skew: 2, Universe: 1 << 16, Beta: 1000, Seed: seed})
}

// feedRuns delivers items to p in runs of run items per site, round robin,
// as the benchmark's item batches arrive.
func feedRuns(p interface{ Process(int, uint64, float64) }, items []gen.WeightedItem, m, run int) {
	for i, it := range items {
		p.Process((i/run)%m, it.Elem, it.Weight)
	}
}

// TestTrackerMatchesOracle replays tracker-shaped ship sequences — 30
// configurations of sites, ε, universe, stream and run length — through
// Tracker and the oracle tracker, and requires every site digest, the
// coordinator digest, the tally, Ŵ and the message counts to agree bit for
// bit at every checkpoint.
func TestTrackerMatchesOracle(t *testing.T) {
	type config struct {
		m    int
		eps  float64
		bits uint
		zipf bool
		run  int
	}
	var configs []config
	for _, m := range []int{1, 3, 10} {
		for _, eps := range []float64{0.01, 0.05, 0.3} {
			for _, zipf := range []bool{true, false} {
				bits := uint(16)
				if !zipf {
					bits = uint(4 + 6*len(configs)%17)
				}
				configs = append(configs, config{m, eps, bits, zipf, []int{1, 37, 256}[len(configs)%3]})
			}
		}
	}
	configs = append(configs, config{10, 0.01, 16, true, 256}, config{4, 0.004, 20, false, 64},
		config{2, 0.5, 1, false, 5}, config{7, 0.02, 62, false, 100},
		config{5, 0.1, 3, false, 1}, config{10, 0.005, 16, true, 1}, config{1, 0.9, 10, false, 1000},
		config{6, 0.03, 12, false, 17}, config{3, 0.2, 16, true, 512}, config{8, 0.07, 9, false, 33},
		config{2, 0.01, 16, true, 2}, config{9, 0.04, 30, false, 300})
	for ci, c := range configs {
		var items []gen.WeightedItem
		if c.zipf {
			items = tenancyItems(6000, int64(ci))
		} else {
			rng := rand.New(rand.NewSource(int64(ci)))
			for _, it := range randItems(rng, 6000, c.bits, 50) {
				items = append(items, gen.WeightedItem{Elem: it.v, Weight: it.w})
			}
		}
		tr, or := NewTracker(c.m, c.eps, c.bits), newOracleTracker(c.m, c.eps, c.bits)
		for start := 0; start < len(items); start += 500 {
			end := min(start+500, len(items))
			for i, it := range items[start:end] {
				site := ((start + i) / c.run) % c.m
				tr.Process(site, it.Elem, it.Weight)
				or.Process(site, it.Elem, it.Weight)
			}
			if err := sameState(tr.merged, or.merged); err != nil {
				t.Fatalf("config %+v after %d items: coordinator: %v", c, end, err)
			}
			for s := range tr.sites {
				if err := sameState(tr.sites[s], or.sites[s].digest); err != nil {
					t.Fatalf("config %+v after %d items: site %d: %v", c, end, s, err)
				}
			}
			if tr.rule.Tally != or.tally || tr.rule.What != or.what || tr.Stats() != or.acct.Stats() {
				t.Fatalf("config %+v after %d items: tally/Ŵ/stats %v %v %v, oracle %v %v %v",
					c, end, tr.rule.Tally, tr.rule.What, tr.Stats(), or.tally, or.what, or.acct.Stats())
			}
		}
	}
}

// fuzzBytes hands out the fuzz input a piece at a time; past its end it
// reads zeros.
type fuzzBytes []byte

func (f *fuzzBytes) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzBytes) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f.byte())
	}
	return v
}

// weight is mostly a small multiple of 0.37 (zero included); one byte in
// eight selects raw float64 bits instead, any value at all.
func (f *fuzzBytes) weight() float64 {
	if b := f.byte(); b < 224 {
		return float64(b) * 0.37
	}
	return math.Float64frombits(f.uint64())
}

const (
	opUpdateA = iota
	opUpdateB
	opCompressA
	opCompressB
	opMerge
	opShip // Compress B, Merge B into A, Reset B: one tracker ship
	opReset
	opRoundTrip
	opRestoreArbitrary
	opCount
)

// shipSeed encodes a tracker-shaped sequence: runs of updates to the site
// digest B, each shipped into A.
func shipSeed(ships, run int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{10, 3} // bits 11, ε byte
	for s := 0; s < ships; s++ {
		for i := 0; i < run; i++ {
			out = append(out, opUpdateB, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(1+rng.Intn(200)))
		}
		out = append(out, opShip)
	}
	return append(out, opRoundTrip, opCompressA)
}

// FuzzQDigestOracle drives QDigest and the map-backed oracle through the
// same fuzz-chosen operations — Update, Compress, Merge of a second
// fuzz-driven digest, a tracker ship, Reset, Snapshot→Restore, and the
// restore of an arbitrary snapshot — and requires the two to be in the
// same state (sameState) after every one. An arbitrary snapshot must
// restore without panicking; one with a non-finite or negative weight must
// be refused.
func FuzzQDigestOracle(f *testing.F) {
	f.Add(shipSeed(24, 3, 1))
	f.Add(shipSeed(3, 30, 2))
	f.Add([]byte{5, 200, opUpdateA, 0, 1, 5, opUpdateA, 0, 2, 5, opCompressA, opRestoreArbitrary, 4, 7, 1, 9, 3, 2, 8, opMerge})
	f.Fuzz(replayOracleOps)
}

// validSnapshot reports whether every weight in snap is finite and
// non-negative: what RestoreQDigest accepts. A live digest can fail it —
// finite weights can sum past the largest float64.
func validSnapshot(snap QDigestSnapshot) bool {
	ok := snap.Weight >= 0 && !math.IsInf(snap.Weight, 0)
	for _, c := range snap.Counts {
		ok = ok && c >= 0 && !math.IsInf(c, 0)
	}
	return ok
}

// replayOracleOps is FuzzQDigestOracle's body.
func replayOracleOps(t *testing.T, data []byte) {
	in := fuzzBytes(data)
	bits := uint(1 + in.byte()%24)
	eps := 0.002 + float64(in.byte())/256
	a, b := NewQDigest(bits, eps), NewQDigest(bits, eps)
	oa, ob := newOracleQDigest(bits, eps), newOracleQDigest(bits, eps)
	for step := 0; len(in) > 0 && step < 128; step++ {
		op := in.byte() % opCount
		switch op {
		case opUpdateA, opUpdateB:
			v := (uint64(in.byte())<<8 | uint64(in.byte())) % (1 << bits)
			w := in.weight()
			if w != 0 && !gen.ValidWeight(w) {
				continue // Update panics on these; TestQDigestValidation pins that
			}
			if op == opUpdateA {
				a.Update(v, w)
				oa.Update(v, w)
			} else {
				b.Update(v, w)
				ob.Update(v, w)
			}
		case opCompressA:
			a.Compress()
			oa.Compress()
		case opCompressB:
			b.Compress()
			ob.Compress()
		case opMerge:
			a.Merge(b)
			oa.Merge(ob)
		case opShip:
			b.Compress()
			ob.Compress()
			a.Merge(b)
			oa.Merge(ob)
			b.Reset()
			ob.Reset()
		case opReset:
			a.Reset()
			oa.Reset()
		case opRoundTrip:
			snap := a.Snapshot()
			r, err := RestoreQDigest(snap)
			if finite := validSnapshot(snap); finite != (err == nil) {
				t.Fatalf("step %d: restoring a live snapshot (finite %v): err = %v", step, finite, err)
			}
			if err == nil {
				a, oa = r, restoreOracleQDigest(oa.Snapshot())
			}
		case opRestoreArbitrary:
			snap := QDigestSnapshot{Bits: bits, Eps: eps, Counts: map[uint64]float64{},
				Weight: in.weight(), CompressAt: int(int8(in.byte()))}
			for k := int(in.byte() % 16); k > 0; k-- {
				snap.Counts[1+in.uint64()%(1<<(bits+1)-1)] = in.weight()
			}
			r, err := RestoreQDigest(snap)
			if validSnapshot(snap) != (err == nil) {
				t.Fatalf("step %d: restoring %+v: err = %v", step, snap, err)
			}
			if err == nil {
				a, oa = r, restoreOracleQDigest(snap)
			}
		}
		if err := sameState(a, oa); err != nil {
			t.Fatalf("step %d (op %d): digest A: %v", step, op, err)
		}
		if err := sameState(b, ob); err != nil {
			t.Fatalf("step %d (op %d): digest B: %v", step, op, err)
		}
	}
}

// TestQDigestGuard keeps the node array worth having (medians of laps, the
// two bodies taking turns so that a noisy spell falls on both): a fresh
// NewTracker(10, 0.01, 16) over the first 40 × 256 durable-tenancy-shaped
// items runs at least 2.5× the oracle tracker — its ships fall on those
// first items, each a Merge + Compress of the coordinator digest — and a
// standalone NewQDigest(20, 0.01) under 400 k uniform values, the
// Update-heavy shape, runs at least 0.85× the oracle. The coordinator's
// steady-state Merge allocates nothing. A reading under a floor is taken
// again, twice at most.
func TestQDigestGuard(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock guard skipped in -short mode and under the race detector")
	}
	items := tenancyItems(40*256, 1)
	rng := rand.New(rand.NewSource(1))
	values := make([]uint64, 400_000)
	for i := range values {
		values[i] = rng.Uint64() % (1 << 20)
	}
	for _, c := range []struct {
		name         string
		laps         int
		floor        float64
		oracle, work func()
	}{
		{"fresh tracker, 40 × 256 items", 21, 2.5,
			func() { feedRuns(newOracleTracker(10, 0.01, 16), items, 10, 256) },
			func() { feedRuns(NewTracker(10, 0.01, 16), items, 10, 256) }},
		{"standalone digest, 400k updates", 5, 0.85,
			func() {
				q := newOracleQDigest(20, 0.01)
				for _, v := range values {
					q.Update(v, 1)
				}
			},
			func() {
				q := NewQDigest(20, 0.01)
				for _, v := range values {
					q.Update(v, 1)
				}
			}},
	} {
		lap := func(f func()) time.Duration {
			start := time.Now()
			f()
			return time.Since(start)
		}
		ratio := 0.0
		for attempt := 0; attempt < 3 && ratio < c.floor; attempt++ {
			to, tw := make([]time.Duration, c.laps), make([]time.Duration, c.laps)
			for i := range to {
				to[i], tw[i] = lap(c.oracle), lap(c.work)
			}
			slices.Sort(to)
			slices.Sort(tw)
			old, now := to[len(to)/2], tw[len(tw)/2]
			ratio = float64(old) / float64(now)
			t.Logf("%s: oracle %v, QDigest %v: %.2fx", c.name, old, now, ratio)
		}
		if ratio < c.floor {
			t.Errorf("%s: QDigest only %.2fx the oracle, want ≥ %gx", c.name, ratio, c.floor)
		}
	}

	merged, site := compressBenchDigests()
	if allocs := testing.AllocsPerRun(100, func() { merged.Merge(site) }); allocs != 0 {
		t.Errorf("steady-state Merge: %v allocs per call, want 0", allocs)
	}
}
