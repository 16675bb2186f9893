package hh

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
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
	builders := map[string]func() Protocol{
		"P2":    func() Protocol { return NewP2(m, eps) },
		"P1":    func() Protocol { return NewP1(m, eps) },
		"Exact": func() Protocol { return NewExact(m) },
	}
	for name, mk := range builders {
		bare := mk()
		sharded := NewSharded(1, m, func(int) Protocol { return mk() })
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
		sharded := NewSharded(p, m, func(int) Protocol { return NewP2(m, eps) })
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

// TestShardedDeterministicItemReplay holds property 3 with randomized P3
// shards: for a fixed (seed, P) two runs produce identical tallies, totals,
// and ordered candidate lists, despite P racing workers.
func TestShardedDeterministicItemReplay(t *testing.T) {
	const m, eps, run = 4, 0.2, 53
	items, _, _ := testStream(8000, 10, 33)
	for _, p := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 99} {
			exec := func() (any, float64, any) {
				s := NewSharded(p, m, func(shard int) Protocol { return NewP3(m, eps, seed+int64(shard)) })
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
		sharded := NewSharded(p, m, func(int) Protocol { return NewExact(m) })
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
// snapshot gob round-trips bit-exactly (deal cursor and tallies included)
// and continued identical ingestion stays on the original's trajectory;
// the Exact variant round-trips the same way; corrupted snapshots fail
// with typed errors instead of panics.
func TestShardedPersistItemRoundTrip(t *testing.T) {
	const m, eps, p, run = 3, 0.1, 3, 29
	items, _, _ := testStream(10000, 20, 34)
	orig := NewSharded(p, m, func(int) Protocol { return NewP2(m, eps) })
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
	ex := NewSharded(2, m, func(int) Protocol { return NewExact(m) })
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
	sampled := NewSharded(2, m, func(int) Protocol { return NewP3(m, eps, 1) })
	defer sampled.Close()
	if _, err := SnapshotSharded(sampled); err == nil {
		t.Error("snapshot of P3 shards succeeded, want error")
	}

	// Cross-shard parameter disagreement is the merge boundary: a wrapped
	// ErrMergeMismatch, not a panic.
	bad := decoded
	bad.Shards = append([]P2Snapshot(nil), decoded.Shards...)
	bad.Shards[1].Eps = eps / 2
	if _, err := RestoreSharded(bad); !errors.Is(err, ErrMergeMismatch) {
		t.Errorf("mismatched shard ε: err = %v, want ErrMergeMismatch", err)
	}
	ebad := esnap
	ebad.Shards = append([]ExactSnapshot(nil), esnap.Shards...)
	ebad.Shards[1].M = m + 1
	if _, err := RestoreShardedExact(ebad); !errors.Is(err, ErrMergeMismatch) {
		t.Errorf("mismatched shard m: err = %v, want ErrMergeMismatch", err)
	}
	cursor := decoded
	cursor.Next = p
	if _, err := RestoreSharded(cursor); err == nil || errors.Is(err, ErrMergeMismatch) {
		t.Errorf("out-of-range deal cursor: err = %v, want a plain restore error", err)
	}
}

// TestMergedSummaryMGMismatch pins the tracker-level merge error contract
// directly: folding MG summaries of different capacities returns a wrapped
// ErrMergeMismatch instead of panicking.
func TestMergedSummaryMGMismatch(t *testing.T) {
	a, b := NewP1(2, 0.1), NewP1(2, 0.2) // different ε ⇒ different MG capacity
	a.Process(0, 7, 3)
	b.Process(0, 7, 3)
	acc := NewMergedSummary()
	if err := a.AccumulateInto(acc); err != nil {
		t.Fatal(err)
	}
	if err := b.AccumulateInto(acc); !errors.Is(err, ErrMergeMismatch) {
		t.Fatalf("mismatched MG capacities: err = %v, want ErrMergeMismatch", err)
	}
}

// TestShardedItemSpeedupGuard is property 6: 4 shards over the batched item
// path must beat the single tracker by ≥2× items/sec. The
// per-item work is amplified with P4Median (4 independent P4 copies per
// item), the workload sharding exists to parallelize. Real parallelism is
// required, so the guard runs only with ≥4 procs (the CI perf-guard job's
// runners); best-of-3 on each side absorbs scheduler noise, and the timed
// section ends at a Stats() barrier so in-flight chunks are counted.
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

	timeSingle := func() time.Duration {
		p := NewP4Median(m, eps, copies, 1)
		start := time.Now()
		feedBare(p, items, m, run)
		p.Stats()
		return time.Since(start)
	}
	timeSharded := func() time.Duration {
		s := NewSharded(need, m, func(shard int) Protocol {
			return NewP4Median(m, eps, copies, 1+int64(shard))
		})
		defer s.Close()
		start := time.Now()
		feedShardedItems(s, items, m, run)
		s.Stats() // merge barrier: every dealt chunk applied
		return time.Since(start)
	}
	best := func(f func() time.Duration) float64 {
		bestSec := 0.0
		for rep := 0; rep < 3; rep++ {
			if sec := f().Seconds(); bestSec == 0 || sec < bestSec {
				bestSec = sec
			}
		}
		return bestSec
	}
	singleSec := best(timeSingle)
	shardedSec := best(timeSharded)
	if shardedSec <= 0 {
		return // timer resolution floor: unmeasurably fast is a pass
	}
	ratio := singleSec / shardedSec
	t.Logf("single %.1fms, %d-shard %.1fms: %.2fx", singleSec*1e3, need, shardedSec*1e3, ratio)
	if ratio < 2 {
		t.Errorf("sharded item ingest only %.2fx faster than unsharded at %d workers, want ≥ 2x", ratio, need)
	}
}
