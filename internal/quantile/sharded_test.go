package quantile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
)

// Sharded quantile property harness, mirroring internal/hh's. The contract:
//
//  1. one shard is the identity: a Sharded wrapper with P = 1 answers every
//     quantile query exactly like the bare tracker, with identical tallies
//     and an identical shard snapshot (the merged view absorbs the single
//     coordinator digest without compressing, so even the node structure
//     matches);
//  2. merge soundness: for any P the merged rank error stays within εW at
//     mid-stream merge points (per-shard q-digest errors add, Σ ε·W_k = εW);
//  3. snapshot/restore round-trips bit-exactly and resumes the trajectory;
//  4. parameter mismatches at the merge boundary return wrapped
//     ErrMergeMismatch instead of panicking.

func feedShardedValues(s *Sharded, items []wv, m, run int) {
	batch := make([]gen.WeightedItem, 0, run)
	for start := 0; start < len(items); start += run {
		end := start + run
		if end > len(items) {
			end = len(items)
		}
		batch = batch[:0]
		for _, it := range items[start:end] {
			batch = append(batch, gen.WeightedItem{Elem: it.v, Weight: it.w})
		}
		s.Deal((start/run)%m, batch)
	}
}

func feedBareValues(t *Tracker, items []wv, m, run int) {
	for i, it := range items {
		t.Process((i/run)%m, it.v, it.w)
	}
}

// TestShardedQuantileOneShardIdentity holds property 1 across a fine φ
// grid.
func TestShardedQuantileOneShardIdentity(t *testing.T) {
	const m, eps, bits, run = 4, 0.1, 10, 64
	rng := rand.New(rand.NewSource(21))
	items := randItems(rng, 12000, bits, 10)
	bare := NewTracker(m, eps, bits)
	sharded := NewSharded(1, m, func(int) *Tracker { return NewTracker(m, eps, bits) })
	defer sharded.Close()
	feedBareValues(bare, items, m, run)
	feedShardedValues(sharded, items, m, run)

	for phi := 0.05; phi < 1; phi += 0.05 {
		if a, b := bare.Quantile(phi), sharded.Quantile(phi); a != b {
			t.Errorf("φ=%.2f: one-shard Quantile = %d, bare %d", phi, b, a)
		}
	}
	if a, b := bare.EstimateTotal(), sharded.EstimateTotal(); a != b {
		t.Errorf("one-shard total %v, bare %v", b, a)
	}
	if a, b := bare.Stats(), sharded.Stats(); a != b {
		t.Errorf("one-shard tallies diverge:\nbare:    %v\nsharded: %v", a, b)
	}
	snap, err := SnapshotSharded(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Snapshot(), snap.Shards[0]) {
		t.Error("one-shard snapshot diverges from bare tracker")
	}
	if got, want := sharded.Eps(), eps; got != want {
		t.Errorf("Eps() = %v, want %v", got, want)
	}
	if got, want := sharded.Bits(), uint(bits); got != want {
		t.Errorf("Bits() = %v, want %v", got, want)
	}
}

// TestShardedQuantileRankBound holds property 2 for P ∈ {2, 3, 4}: at a
// mid-stream merge point and at the end, every returned quantile's exact
// rank is within εW of φW, and the merged total within εW of W.
func TestShardedQuantileRankBound(t *testing.T) {
	const m, eps, bits, run = 5, 0.1, 10, 41
	rng := rand.New(rand.NewSource(22))
	items := randItems(rng, 20000, bits, 15)
	for _, p := range []int{2, 3, 4} {
		sharded := NewSharded(p, m, func(int) *Tracker { return NewTracker(m, eps, bits) })
		half := len(items) / 2
		feedShardedValues(sharded, items[:half], m, run)
		assertRankBound(t, "mid-stream", p, sharded, items[:half], eps)
		feedShardedValues(sharded, items[half:], m, run)
		assertRankBound(t, "end", p, sharded, items, eps)
		sharded.Close()
	}
}

func assertRankBound(t *testing.T, instant string, p int, s *Sharded, prefix []wv, eps float64) {
	t.Helper()
	w := totalW(prefix)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		v := s.Quantile(phi)
		r := exactRank(prefix, v)
		if r < (phi-eps)*w-20 || r > (phi+eps)*w+20 {
			t.Fatalf("P=%d %s φ=%v: value %d has rank %v, want within εW of %v", p, instant, phi, v, r, phi*w)
		}
	}
	if got := s.EstimateTotal(); got < (1-eps)*w || got > w+1e-6 {
		t.Fatalf("P=%d %s: total %v vs W=%v", p, instant, got, w)
	}
}

// TestShardedQuantilePersistRoundTrip holds property 3 (gob round-trip,
// resumed trajectory) and property 4 on corrupted snapshots.
func TestShardedQuantilePersistRoundTrip(t *testing.T) {
	const m, eps, bits, p, run = 3, 0.1, 10, 3, 29
	rng := rand.New(rand.NewSource(23))
	items := randItems(rng, 9000, bits, 8)
	orig := NewSharded(p, m, func(int) *Tracker { return NewTracker(m, eps, bits) })
	defer orig.Close()
	half := len(items) / 2
	feedShardedValues(orig, items[:half], m, run)

	snap, err := SnapshotSharded(orig)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var decoded ShardedTrackerSnapshot
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
	feedShardedValues(orig, items[half:], m, run)
	feedShardedValues(restored, items[half:], m, run)
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

	// Cross-shard parameter disagreement: wrapped ErrMergeMismatch.
	bad := decoded
	bad.Shards = append([]TrackerSnapshot(nil), decoded.Shards...)
	bad.Shards[1].Bits = bits + 1
	if _, err := RestoreSharded(bad); !errors.Is(err, ErrMergeMismatch) {
		t.Errorf("mismatched shard bits: err = %v, want ErrMergeMismatch", err)
	}
	cursor := decoded
	cursor.Next = p
	if _, err := RestoreSharded(cursor); err == nil || errors.Is(err, ErrMergeMismatch) {
		t.Errorf("out-of-range deal cursor: err = %v, want a plain restore error", err)
	}
}

// TestAccumulateIntoMismatch pins property 4 at the AccumulateInto
// boundary directly, and the universe validation on the sharded ingest
// path.
func TestAccumulateIntoMismatch(t *testing.T) {
	tr := NewTracker(2, 0.1, 8)
	tr.Process(0, 3, 1)
	dst := NewQDigest(10, 0.05) // wrong universe
	if _, err := tr.AccumulateInto(dst); !errors.Is(err, ErrMergeMismatch) {
		t.Fatalf("bits 8 into bits 10: err = %v, want ErrMergeMismatch", err)
	}
	ok := NewQDigest(8, 0.05)
	tally, err := tr.AccumulateInto(ok)
	if err != nil {
		t.Fatal(err)
	}
	if tally != tr.EstimateTotal() {
		t.Fatalf("AccumulateInto tally = %v, want %v", tally, tr.EstimateTotal())
	}

	s := NewSharded(2, 2, func(int) *Tracker { return NewTracker(2, 0.1, 8) })
	defer s.Close()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("out-of-universe value", func() { s.Process(0, 1<<8, 1) })
	mustPanic("out-of-universe batch", func() {
		s.Deal(0, []gen.WeightedItem{{Elem: 1, Weight: 1}, {Elem: 1 << 8, Weight: 1}})
	})
	s.Flush()
	if got := s.EstimateTotal(); got != 0 {
		t.Fatalf("rejected batches leaked weight %v into the shards", got)
	}
}
