package quantile

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// exactRank computes the weighted rank of v (weight of items ≤ v).
type wv struct {
	v uint64
	w float64
}

func exactRank(items []wv, v uint64) float64 {
	var r float64
	for _, it := range items {
		if it.v <= v {
			r += it.w
		}
	}
	return r
}

func totalW(items []wv) float64 {
	var w float64
	for _, it := range items {
		w += it.w
	}
	return w
}

func randItems(rng *rand.Rand, n int, bits uint, beta float64) []wv {
	items := make([]wv, n)
	max := uint64(1) << bits
	for i := range items {
		items[i] = wv{v: rng.Uint64() % max, w: 1 + rng.Float64()*(beta-1)}
	}
	return items
}

func TestQDigestExactWhenUncompressed(t *testing.T) {
	q := NewQDigest(8, 0.1)
	q.Update(3, 5)
	q.Update(200, 2)
	q.Update(3, 1)
	if q.Weight() != 8 {
		t.Fatalf("Weight = %v", q.Weight())
	}
	lo, hi := q.RankBounds(3)
	if lo != 6 || hi != 6 {
		t.Fatalf("RankBounds(3) = [%v,%v] want [6,6] before compression", lo, hi)
	}
	if got := q.Quantile(0.5); got != 3 {
		t.Fatalf("median = %d want 3", got)
	}
	if got := q.Quantile(1.0); got != 200 {
		t.Fatalf("max quantile = %d want 200", got)
	}
}

// Property: after arbitrary weighted inserts and compressions, every rank
// query errs by at most εW.
func TestQDigestRankGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := uint(6 + rng.Intn(6))
		eps := 0.05 + rng.Float64()*0.2
		items := randItems(rng, 200+rng.Intn(2000), bits, 10)
		q := NewQDigest(bits, eps)
		for _, it := range items {
			q.Update(it.v, it.w)
		}
		q.Compress()
		w := totalW(items)
		// Probe 20 random values: true rank must lie within the bounds and
		// the bounds must be εW-tight.
		for trial := 0; trial < 20; trial++ {
			v := rng.Uint64() % (uint64(1) << bits)
			lo, hi := q.RankBounds(v)
			r := exactRank(items, v)
			if r < lo-1e-6 || r > hi+1e-6 {
				return false
			}
			if hi-lo > eps*w+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile queries return values whose exact rank is within εW
// of the target.
func TestQDigestQuantileGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const bits, eps = 10, 0.1
		items := randItems(rng, 3000, bits, 5)
		q := NewQDigest(bits, eps)
		for _, it := range items {
			q.Update(it.v, it.w)
		}
		w := totalW(items)
		for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			v := q.Quantile(phi)
			r := exactRank(items, v)
			// Exact rank of the returned value within [φW − εW, φW + εW];
			// the discrete value boundary can add one item's weight (≤ 5).
			if r < phi*w-eps*w-5 || r > phi*w+eps*w+5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQDigestSizeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const bits, eps = 12, 0.05
	q := NewQDigest(bits, eps)
	for i := 0; i < 50000; i++ {
		q.Update(rng.Uint64()%(1<<bits), 1+rng.Float64())
	}
	q.Compress()
	// q-digest bound: O(bits/ε) nodes (constant 8 covers the weighted
	// variant's slack from deferred compression).
	bound := int(8 * float64(bits) / eps)
	if q.Size() > bound {
		t.Fatalf("size %d exceeds O(bits/ε) bound %d", q.Size(), bound)
	}
}

func TestQDigestMergeGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const bits, eps = 8, 0.1
	a := NewQDigest(bits, eps)
	b := NewQDigest(bits, eps)
	itemsA := randItems(rng, 1500, bits, 8)
	itemsB := randItems(rng, 1500, bits, 8)
	for _, it := range itemsA {
		a.Update(it.v, it.w)
	}
	for _, it := range itemsB {
		b.Update(it.v, it.w)
	}
	a.Merge(b)
	all := append(append([]wv{}, itemsA...), itemsB...)
	w := totalW(all)
	if got := a.Weight(); got < w-1e-6 || got > w+1e-6 {
		t.Fatalf("merged weight %v want %v", got, w)
	}
	for trial := 0; trial < 20; trial++ {
		v := rng.Uint64() % (1 << bits)
		lo, hi := a.RankBounds(v)
		r := exactRank(all, v)
		if r < lo-1e-6 || r > hi+1e-6 {
			t.Fatalf("merged rank of %d: %v outside [%v,%v]", v, r, lo, hi)
		}
		// Merged error budget: sum of the two digests' budgets.
		if hi-lo > 2*eps*w+1e-6 {
			t.Fatalf("merged bounds too loose: %v", hi-lo)
		}
	}
}

func TestQDigestValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewQDigest(0, 0.1) },
		func() { NewQDigest(63, 0.1) },
		func() { NewQDigest(8, 0) },
		func() { NewQDigest(8, 0.1).Update(1<<8, 1) },
		func() { NewQDigest(8, 0.1).Update(1, -1) },
		func() { NewQDigest(8, 0.1).Quantile(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestQDigestMergeBitsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQDigest(8, 0.1).Merge(NewQDigest(9, 0.1))
}

func TestQDigestEmptyAndReset(t *testing.T) {
	q := NewQDigest(8, 0.1)
	if q.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	q.Update(7, 3)
	q.Reset()
	if q.Weight() != 0 || q.Size() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestQDigestZeroWeightNoop(t *testing.T) {
	q := NewQDigest(8, 0.1)
	q.Update(1, 0)
	if q.Weight() != 0 || q.Size() != 0 {
		t.Fatal("zero weight should be no-op")
	}
}

func TestDepthAndRange(t *testing.T) {
	q := NewQDigest(3, 0.1) // universe [0,8)
	lo, hi := q.rangeOf(1)
	if lo != 0 || hi != 7 {
		t.Fatalf("root range [%d,%d]", lo, hi)
	}
	lo, hi = q.rangeOf(q.leaf(5))
	if lo != 5 || hi != 5 {
		t.Fatalf("leaf(5) range [%d,%d]", lo, hi)
	}
	if depth(1) != 0 || depth(q.leaf(0)) != 3 {
		t.Fatal("depth wrong")
	}
}

// Sanity check on sorted data: quantiles are monotone in φ.
func TestQDigestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewQDigest(10, 0.05)
	for i := 0; i < 5000; i++ {
		q.Update(rng.Uint64()%1024, 1)
	}
	var prev uint64
	for _, phi := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		v := q.Quantile(phi)
		if v < prev {
			t.Fatalf("quantiles not monotone at φ=%v: %d < %d", phi, v, prev)
		}
		prev = v
	}
	// And on fully sorted exact data the median is near 512.
	med := q.Quantile(0.5)
	if med < 400 || med > 624 {
		t.Fatalf("median %d far from 512 on uniform data", med)
	}
	_ = sort.SearchInts
}

// BenchmarkQDigestCompress times the coordinator's ship path — Merge of a
// small site digest into a large merged one, which is absorb + Compress —
// the q-digest tracker's dominant ingest cost. Steady state allocates
// nothing: the node list is the digest's reused scratch.
func BenchmarkQDigestCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	merged := NewQDigest(16, 0.005)
	for i := 0; i < 200000; i++ {
		merged.Update(rng.Uint64()%(1<<16), 1)
	}
	merged.Compress()
	site := NewQDigest(16, 0.005)
	for i := 0; i < 32; i++ {
		site.Update(rng.Uint64()%(1<<16), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged.Merge(site)
	}
	b.ReportMetric(float64(merged.Size()), "nodes")
}
