package hh

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/perfguard"
	"repro/internal/sketch"
)

// Sharded heavy-hitters property harness, mirroring the matrix tracker's
// (internal/core/sharded_test.go). The contract under test:
//
//  1. one shard is the identity: a Sharded wrapper with P = 1 is
//     byte-identical to the bare protocol on the same feed — estimates,
//     totals, heavy-hitter output, tallies, and (for P2) the gob snapshot;
//  2. merge-on-query soundness: for any P the merged estimates stay within
//     εW of the exact frequencies at mid-stream merge points too (per-shard
//     bounds add, Σ ε·W_k = εW);
//  3. determinism: results are a pure function of the feed, the seed, and
//     P — never of the goroutine schedule;
//  4. ordered output: merged and unsharded trackers report identical
//     ordered heavy-hitter lists on tie-heavy streams (the canonical
//     weight-desc/elem-asc order leaves no room for map-iteration order);
//  5. snapshot/restore round-trips bit-exactly and resumes the trajectory;
//  6. a ≥2× scaling floor at 4 workers over one tracker.

// feedShardedItems drives items through Deal in site runs of run
// items each, cycling sites; feedBare drives the identical sequence through
// the per-item Process path.
func feedShardedItems(s *Sharded, items []gen.WeightedItem, m, run int) {
	for start := 0; start < len(items); start += run {
		end := start + run
		if end > len(items) {
			end = len(items)
		}
		s.Deal((start/run)%m, items[start:end])
	}
}

func feedBare(p Protocol, items []gen.WeightedItem, m, run int) {
	for i, it := range items {
		p.Process((i/run)%m, it.Elem, it.Weight)
	}
}

// TestShardedOneShardByteIdentity holds property 1 for P2, P1, and Exact
// shards: with P = 1 every item lands on that shard in feed order, so the
// merged view reproduces the bare protocol exactly — and for P2 the shard's
// gob snapshot matches the bare tracker's byte for byte.
func TestShardedOneShardByteIdentity(t *testing.T) {
	const m, eps, run = 4, 0.05, 64
	items, exact, _ := testStream(20000, 50, 31)
	builders := map[string]func(m int) Protocol{
		"P2":    func(m int) Protocol { return NewP2(m, eps) },
		"P1":    func(m int) Protocol { return NewP1(m, eps) },
		"Exact": func(m int) Protocol { return NewExact(m) },
	}
	for name, mk := range builders {
		bare := mk(m)
		sharded := NewSharded(1, m, func(_, sites int) Protocol { return mk(sites) })
		feedBare(bare, items, m, run)
		feedShardedItems(sharded, items, m, run)

		for e := range exact {
			if a, b := bare.Estimate(e), sharded.Estimate(e); a != b {
				t.Errorf("%s: one-shard Estimate(%d) = %v, bare %v", name, e, b, a)
			}
		}
		if a, b := bare.EstimateTotal(), sharded.EstimateTotal(); a != b {
			t.Errorf("%s: one-shard total %v, bare %v", name, b, a)
		}
		if a, b := bare.Stats(), sharded.Stats(); a != b {
			t.Errorf("%s: one-shard tallies diverge:\nbare:    %v\nsharded: %v", name, a, b)
		}
		if a, b := HeavyHitters(bare, 0.02), HeavyHitters(sharded, 0.02); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one-shard HeavyHitters diverges from bare protocol", name)
		}
		if name == "P2" {
			// The shard's serialized state equals the bare tracker's field
			// for field (gob encodes maps in nondeterministic order, so the
			// identity is structural, not a raw byte compare).
			want := bare.(*P2).Snapshot()
			snap, err := SnapshotSharded(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, snap.Shards[0]) {
				t.Errorf("P2: one-shard snapshot diverges from bare tracker:\nbare:  %+v\nshard: %+v", want, snap.Shards[0])
			}
		}
		sharded.Close()
	}
}

// TestShardedMergedErrorBound holds property 2 for P ∈ {2, 3, 4} over P2
// shards: at a mid-stream merge point and at the end, every element
// estimate is within εW of the exact frequency, and the merged total is
// within εW (+P for the per-shard initial lower bounds) of W.
func TestShardedMergedErrorBound(t *testing.T) {
	const m, eps, run = 5, 0.05, 37
	items, _, _ := testStream(30000, 50, 32)
	for _, p := range []int{2, 3, 4} {
		sharded := NewSharded(p, m, func(_, sites int) Protocol { return NewP2(sites, eps) })
		half := len(items) / 2
		feedShardedItems(sharded, items[:half], m, run)
		assertMergedBound(t, "mid-stream", p, sharded, items[:half], eps)
		feedShardedItems(sharded, items[half:], m, run)
		assertMergedBound(t, "end", p, sharded, items, eps)
		sharded.Close()
	}
}

func assertMergedBound(t *testing.T, instant string, p int, s *Sharded, prefix []gen.WeightedItem, eps float64) {
	t.Helper()
	exact := gen.ExactFrequencies(prefix)
	w := gen.TotalWeight(prefix)
	for e, fe := range exact {
		if err := math.Abs(s.Estimate(e) - fe); err > eps*w {
			t.Fatalf("P=%d %s: element %d error %v exceeds εW = %v", p, instant, e, err, eps*w)
		}
	}
	if got := s.EstimateTotal(); math.Abs(got-w) > eps*w+float64(p) {
		t.Fatalf("P=%d %s: total %v vs W=%v outside εW+P", p, instant, got, w)
	}
}

// TestShardedP1IsShardSum: a sharded P1 answers with the in-shard-order
// sum of its shards' MG estimates — no MG merge prunes the sum again — and
// as shard k errs by at most ε·W_k, the sum stays within εW, mid-stream and
// at the end.
func TestShardedP1IsShardSum(t *testing.T) {
	const m, p, eps, run = 7, 3, 0.05, 31
	items, _, _ := testStream(30000, 200, 34)
	sharded := NewSharded(p, m, func(_, sites int) Protocol { return NewP1(sites, eps) })
	defer sharded.Close()
	fed := 0
	for _, cut := range []int{len(items) / 2, len(items)} {
		feedShardedItems(sharded, items[fed:cut], m, run)
		prefix := items[:cut]
		fed = cut
		sharded.Flush()
		want := map[uint64]float64{}
		for k := 0; k < p; k++ {
			for _, c := range sharded.Shard(k).Candidates(math.Inf(-1)) {
				want[c.Elem] += c.Weight
			}
		}
		got := sharded.Candidates(math.Inf(-1))
		if len(got) != len(want) {
			t.Fatalf("after %d items: %d candidates, want the %d elements the shards track", len(prefix), len(got), len(want))
		}
		for _, c := range got {
			if math.Float64bits(c.Weight) != math.Float64bits(want[c.Elem]) {
				t.Fatalf("after %d items: element %d estimate %v, shard sum %v", len(prefix), c.Elem, c.Weight, want[c.Elem])
			}
			if e := sharded.Estimate(c.Elem); math.Float64bits(e) != math.Float64bits(c.Weight) {
				t.Fatalf("after %d items: Estimate(%d) = %v, candidate %v", len(prefix), c.Elem, e, c.Weight)
			}
		}
		assertMergedBound(t, fmt.Sprintf("after %d items", len(prefix)), p, sharded, prefix, eps)
	}
}

// TestShardedItemStateIndependentOfWorkers: shard k's items pass through
// one worker queue in deal order whatever the worker count W = min(P,
// GOMAXPROCS), so P2 shard snapshots and every shard's estimates (by
// Float64bits), and P1's summed answer, are identical at W = 1, 2 and P.
func TestShardedItemStateIndependentOfWorkers(t *testing.T) {
	const m, p, eps, run = 10, 4, 0.05, 43
	items, _, _ := testStream(20000, 100, 35)
	type state struct {
		snap ShardedP2Snapshot
		est  [][]sketch.WeightedElement // per P2 shard, then P1's sum
	}
	runAt := func(w int) (st state) {
		withProcs(t, w)
		s2 := NewSharded(p, m, func(_, sites int) Protocol { return NewP2(sites, eps) })
		defer s2.Close()
		s1 := NewSharded(p, m, func(_, sites int) Protocol { return NewP1(sites, eps) })
		defer s1.Close()
		feedShardedItems(s2, items, m, run)
		feedShardedItems(s1, items, m, run)
		var err error
		if st.snap, err = SnapshotSharded(s2); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < p; k++ {
			st.est = append(st.est, s2.Shard(k).Candidates(math.Inf(-1)))
		}
		st.est = append(st.est, s1.Candidates(math.Inf(-1)))
		return st
	}
	want := runAt(p)
	for _, w := range []int{1, 2} {
		got := runAt(w)
		if !reflect.DeepEqual(got.snap, want.snap) {
			t.Errorf("W=%d: P2 shard snapshots differ from W=%d's", w, p)
		}
		for k, est := range want.est {
			if len(got.est[k]) != len(est) {
				t.Fatalf("W=%d: list %d has %d estimates, %d at W=%d", w, k, len(got.est[k]), len(est), p)
			}
			for i, c := range est {
				if g := got.est[k][i]; g.Elem != c.Elem || math.Float64bits(g.Weight) != math.Float64bits(c.Weight) {
					t.Fatalf("W=%d: list %d entry %d is %v, %v at W=%d", w, k, i, g, c, p)
				}
			}
		}
	}
}

// TestShardedProcessAllocs: an item fed to a sharded tracker one at a time
// allocates nothing once the staging pool is warm — Process deals a block
// header kept on the wrapper, which Deal copies before it returns.
func TestShardedProcessAllocs(t *testing.T) {
	s := NewSharded(2, 4, func(_, sites int) Protocol { return NewP2(sites, 0.1) })
	defer s.Close()
	for i := 0; i < 1000; i++ {
		s.Process(i%4, 7, 1)
	}
	s.Flush()
	if a := testing.AllocsPerRun(1000, func() { s.Process(1, 7, 1) }); a != 0 {
		t.Errorf("Sharded.Process: %v allocs per item, want 0", a)
	}
}

// withProcs sets GOMAXPROCS to procs until t ends, so a sharded tracker
// built meanwhile runs min(P, procs) workers.
func withProcs(t testing.TB, procs int) {
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestShardedDeterministicItemReplay holds property 3 with randomized P3
// shards: for a fixed (seed, P) two runs produce identical tallies, totals,
// and ordered candidate lists, despite P racing workers.
func TestShardedDeterministicItemReplay(t *testing.T) {
	const m, eps, run = 4, 0.2, 53
	items, _, _ := testStream(8000, 10, 33)
	for _, p := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 99} {
			exec := func() (any, float64, any) {
				s := NewSharded(p, m, func(shard, sites int) Protocol { return NewP3(sites, eps, seed+int64(shard)) })
				defer s.Close()
				feedShardedItems(s, items, m, run)
				return s.Stats(), s.EstimateTotal(), s.Candidates(math.Inf(-1))
			}
			s1, t1, c1 := exec()
			s2, t2, c2 := exec()
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("P=%d seed=%d: tallies not reproducible", p, seed)
			}
			if t1 != t2 {
				t.Errorf("P=%d seed=%d: totals not reproducible: %v vs %v", p, seed, t1, t2)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Errorf("P=%d seed=%d: candidate lists not reproducible", p, seed)
			}
		}
	}
}

// TestShardedTieOrderingMatchesUnsharded holds property 4: on a stream
// whose elements tie exactly, the merged heavy-hitter list equals the
// unsharded one element for element — the weight-desc/elem-asc total order
// is the same on both sides, so map iteration order can't leak through
// either path. Exact shards keep merged weights identical to the bare
// tracker, making list equality exact.
func TestShardedTieOrderingMatchesUnsharded(t *testing.T) {
	const m, n = 3, 9000
	items := make([]gen.WeightedItem, n)
	for i := range items {
		items[i] = gen.WeightedItem{Elem: uint64(i % 30), Weight: 2} // 30 elements, all tied
	}
	bare := NewExact(m)
	feedBare(bare, items, m, 41)
	for _, p := range []int{1, 2, 3, 4} {
		sharded := NewSharded(p, m, func(_, sites int) Protocol { return NewExact(sites) })
		feedShardedItems(sharded, items, m, 41)
		want := HeavyHitters(bare, 0.01)
		got := HeavyHitters(sharded, 0.01)
		if len(want) != 30 {
			t.Fatalf("tie stream returned %d heavy hitters, want all 30", len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: merged ordered output diverges from unsharded on ties:\nwant %v\ngot  %v", p, want, got)
		}
		if !reflect.DeepEqual(sharded.Candidates(math.Inf(-1)), bare.Candidates(math.Inf(-1))) {
			t.Errorf("P=%d: merged candidate order diverges from unsharded on ties", p)
		}
		sharded.Close()
	}
}

// TestShardedPersistItemRoundTrip holds property 5: a half-fed sharded P2
// snapshot gob round-trips bit-exactly (site count and tallies included)
// and continued identical ingestion stays on the original's trajectory;
// the Exact variant round-trips the same way; corrupted snapshots fail
// with typed errors instead of panics.
func TestShardedPersistItemRoundTrip(t *testing.T) {
	const m, eps, p, run = 3, 0.1, 3, 29
	items, _, _ := testStream(10000, 20, 34)
	orig := NewSharded(p, m, func(_, sites int) Protocol { return NewP2(sites, eps) })
	defer orig.Close()
	half := len(items) / 2
	feedShardedItems(orig, items[:half], m, run)

	snap, err := SnapshotSharded(orig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var decoded ShardedP2Snapshot
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSharded(decoded)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	resnap, err := SnapshotSharded(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, resnap) {
		t.Fatal("restored snapshot diverges from saved snapshot")
	}
	feedShardedItems(orig, items[half:], m, run)
	feedShardedItems(restored, items[half:], m, run)
	a, err := SnapshotSharded(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SnapshotSharded(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("post-restore ingestion diverges from the original trajectory")
	}

	// Exact shards round-trip through their own snapshot type.
	ex := NewSharded(2, m, func(_, sites int) Protocol { return NewExact(sites) })
	defer ex.Close()
	feedShardedItems(ex, items[:2000], m, run)
	esnap, err := SnapshotShardedExact(ex)
	if err != nil {
		t.Fatal(err)
	}
	erestored, err := RestoreShardedExact(esnap)
	if err != nil {
		t.Fatal(err)
	}
	defer erestored.Close()
	if a, b := ex.EstimateTotal(), erestored.EstimateTotal(); a != b {
		t.Fatalf("restored exact total %v, want %v", b, a)
	}

	// Non-persistable shards (P3) error cleanly.
	sampled := NewSharded(2, m, func(_, sites int) Protocol { return NewP3(sites, eps, 1) })
	defer sampled.Close()
	if _, err := SnapshotSharded(sampled); err == nil {
		t.Error("snapshot of P3 shards succeeded, want error")
	}

	// Cross-shard parameter disagreement is refused at restore: a wrapped
	// ErrMergeMismatch, not a panic.
	bad := decoded
	bad.Shards = append([]P2Snapshot(nil), decoded.Shards...)
	bad.Shards[1].Eps = eps / 2
	if _, err := RestoreSharded(bad); !errors.Is(err, ErrMergeMismatch) {
		t.Errorf("mismatched shard ε: err = %v, want ErrMergeMismatch", err)
	}
	// A shard with fewer sites than the deal routes to it, or a tally
	// slice of the wrong length, is a plain restore error.
	ebad := esnap
	ebad.Shards = append([]ExactSnapshot(nil), esnap.Shards...)
	ebad.M = m + 2
	if _, err := RestoreShardedExact(ebad); err == nil || errors.Is(err, ErrMergeMismatch) {
		t.Errorf("too few sites on a shard: err = %v, want a plain restore error", err)
	}
	tallies := decoded
	tallies.Items = tallies.Items[:1]
	if _, err := RestoreSharded(tallies); err == nil || errors.Is(err, ErrMergeMismatch) {
		t.Errorf("short tally slice: err = %v, want a plain restore error", err)
	}
}

// TestShardedItemSpeedupGuard is property 6: 4 shards over the batched item
// path must beat the single tracker by ≥2× items/sec. The
// per-item work is amplified with P4Median (4 independent P4 copies per
// item), the workload sharding exists to parallelize. Real parallelism is
// required, so the guard runs only with ≥4 procs (the CI perf-guard job's
// runners). A lap feeds a tracker built before it and ends at a Stats()
// barrier, so in-flight chunks are counted; the sharded tracker is closed
// after it.
func TestShardedItemSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const need = 4
	if procs := runtime.GOMAXPROCS(0); procs < need {
		t.Skipf("scaling guard needs ≥%d procs, have %d", need, procs)
	}
	const m, eps, copies, run = 8, 0.05, 4, 1024
	items, _, _ := testStream(300000, 20, 35)

	var single *P4Median
	var sharded *Sharded
	perfguard.Hold(t, perfguard.Row{Name: fmt.Sprintf("item ingest, %d shards", need),
		Ref: perfguard.Body{Name: "single", Prep: func() { single = NewP4Median(m, eps, copies, 1) },
			Run: func() {
				feedBare(single, items, m, run)
				single.Stats()
			}},
		Fast: perfguard.Body{Name: fmt.Sprintf("%d-shard", need),
			Prep: func() {
				sharded = NewSharded(need, m, func(shard, sites int) Protocol {
					return NewP4Median(sites, eps, copies, 1+int64(shard))
				})
			},
			Run: func() {
				feedShardedItems(sharded, items, m, run)
				sharded.Stats() // merge barrier: every dealt chunk applied
			},
			Done: func() { sharded.Close() }},
		Floor: 2, Laps: 3})
}

// TestShardedMessagesMatchOneTracker: at m = 10, ε = 0.01, 256-item blocks
// with one site per block in rotation, four P2 shards that own sites send
// within 10 % of the messages one P2 sends (1.00× here).
func TestShardedMessagesMatchOneTracker(t *testing.T) {
	const m, p, eps, run = 10, 4, 0.01, 256
	items, _, _ := testStream(200_000, 20, 36)
	one := NewP2(m, eps)
	feedBare(one, items, m, run)
	sharded := NewSharded(p, m, func(_, sites int) Protocol { return NewP2(sites, eps) })
	defer sharded.Close()
	feedShardedItems(sharded, items, m, run)
	base, owned := float64(one.Stats().Total()), float64(sharded.Stats().Total())
	t.Logf("messages per item: one tracker %.4f, %d site-owning shards %.4f (%.2f×)",
		base/float64(len(items)), p, owned/float64(len(items)), owned/base)
	if math.Abs(owned/base-1) > 0.1 {
		t.Errorf("%d shards sent %.0f messages, one tracker %.0f: want within 10 %%", p, owned, base)
	}
}
