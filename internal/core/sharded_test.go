package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// Sharded-tracker property harness. The contract under test:
//
//  1. one shard is the identity: a ShardedTracker with P = 1 is
//     byte-identical to the bare tracker on the same block feed;
//  2. merge-on-query soundness: for any P the merged Gram stays within the
//     covariance bound of the exact stream Gram (per-shard bounds add);
//  3. determinism: results are a pure function of the feed and P — two
//     runs with concurrent workers produce bit-identical Grams and message
//     tallies, regardless of goroutine schedule;
//  4. a ≥2× scaling floor at 4 workers over one fast tracker (enforced
//     where ≥4 procs exist);
//  5. snapshot/restore round-trips bit-exactly and resumes the trajectory.

// feedSharded drives rows through ProcessRows in site runs, exactly like
// feedBlocks but without the per-block check hook.
func feedSharded(t Tracker, rows [][]float64, sites []int) {
	feedBlocks(t, rows, sites, nil)
}

// TestShardedSingleShardByteIdentity holds property 1 for exact P2, fast
// P2, fast P1, and the FD baseline: with one shard, every block lands on
// that shard in feed order, so state, Gram, Frobenius estimate, and message
// tallies match the bare tracker bit for bit.
func TestShardedSingleShardByteIdentity(t *testing.T) {
	const n, d, m = 2000, 12, 4
	const eps = 0.2
	builders := map[string]func(m int) Tracker{
		"P2exact": func(m int) Tracker { return NewP2(m, eps, d) },
		"P2fast":  func(m int) Tracker { return NewP2Fast(m, eps, d) },
		"P1fast":  func(m int) Tracker { return NewP1Fast(m, eps, d) },
		"FD":      func(m int) Tracker { return NewNaiveFD(m, 10, d) },
	}
	for streamName, build := range adversarialStreams(n, d, m) {
		rows, sites := build()
		for trackerName, mk := range builders {
			bare := mk(m)
			sharded := NewShardedTracker(1, m, func(_, sites int) Tracker { return mk(sites) })
			feedSharded(bare, rows, sites)
			feedSharded(sharded, rows, sites)
			if a, b := bare.Gram().RawData(), sharded.Gram().RawData(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: one-shard Gram diverges from bare tracker", trackerName, streamName)
			}
			if a, b := bare.EstimateFrobenius(), sharded.EstimateFrobenius(); a != b {
				t.Errorf("%s/%s: one-shard F̂ %v, bare %v", trackerName, streamName, b, a)
			}
			if a, b := bare.Stats(), sharded.Stats(); a != b {
				t.Errorf("%s/%s: one-shard tallies diverge:\nbare:    %v\nsharded: %v",
					trackerName, streamName, a, b)
			}
			// A closed tracker keeps answering from its final state.
			sharded.Close()
			if a, b := bare.Gram().RawData(), sharded.Gram().RawData(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: Gram after Close diverges", trackerName, streamName)
			}
		}
	}
}

// TestShardedCovarianceBound holds property 2 on the adversarial streams
// for 2, 3, and 4 shards over fast-mode P2 and P1 shards: the merged
// estimate never overshoots and never trails the exact Gram by more than
// ε‖A‖²_F at any merge point.
func TestShardedCovarianceBound(t *testing.T) {
	const n, d, m = 3000, 16, 5
	const eps = 0.2
	builders := map[string]func(m int) Tracker{
		"P2fast": func(m int) Tracker { return NewP2Fast(m, eps, d) },
		"P1fast": func(m int) Tracker { return NewP1Fast(m, eps, d) },
	}
	for streamName, build := range adversarialStreams(n, d, m) {
		rows, sites := build()
		exact := matrix.NewSym(d)
		for _, row := range rows {
			exact.AddOuter(1, row)
		}
		for trackerName, mk := range builders {
			for _, p := range []int{2, 3, 4} {
				sharded := NewShardedTracker(p, m, func(_, sites int) Tracker { return mk(sites) })
				// Mid-stream merge: queries are sound at any point, not
				// just at the end.
				half := len(rows) / 2
				feedSharded(sharded, rows[:half], sites[:half])
				mid := matrix.NewSym(d)
				for _, row := range rows[:half] {
					mid.AddOuter(1, row)
				}
				assertCovarianceBound(t, trackerName+"/"+streamName, half, mid, sharded.Gram(), eps)
				feedSharded(sharded, rows[half:], sites[half:])
				assertCovarianceBound(t, trackerName+"/"+streamName, len(rows), exact, sharded.Gram(), eps)
				sharded.Close()
			}
		}
	}
}

// TestShardedDeterministicReplay holds property 3, the regression the
// facade documents: for a fixed seed, feed, and shard count, sharded
// message tallies and query results are bit-reproducible across runs even
// though P workers race on the wall clock. (Results depend on the shard
// count P — each P groups the sites differently — never on the
// goroutine schedule.)
func TestShardedDeterministicReplay(t *testing.T) {
	const n, d, m = 2500, 44, 4 // d = 44: the PAMAP-like generator's dimension
	const eps = 0.15
	rows := gen.LowRankMatrix(gen.PAMAPLike(n))
	sites := make([]int, n)
	for i := range sites {
		sites[i] = (i / 37) % m
	}
	run := func(p int) ([]float64, float64, any) {
		sharded := NewShardedTracker(p, m, func(_, sites int) Tracker { return NewP2Fast(sites, eps, d) })
		defer sharded.Close()
		feedSharded(sharded, rows, sites)
		return sharded.Gram().RawData(), sharded.EstimateFrobenius(), sharded.Stats()
	}
	for _, p := range []int{1, 2, 4} {
		g1, f1, s1 := run(p)
		g2, f2, s2 := run(p)
		if !reflect.DeepEqual(g1, g2) {
			t.Errorf("P=%d: Gram not reproducible across runs", p)
		}
		if f1 != f2 {
			t.Errorf("P=%d: F̂ not reproducible: %v vs %v", p, f1, f2)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("P=%d: message tallies not reproducible:\nrun 1: %v\nrun 2: %v", p, s1, s2)
		}
	}
}

// TestShardStateIndependentOfWorkers: shard k's blocks pass through one
// worker queue in deal order whatever the worker count W = min(P,
// GOMAXPROCS), so the shard snapshots (gob bytes, which carry every float
// by its bits), the summed Gram and the tallies are identical at W = 1, 2
// and P.
func TestShardStateIndependentOfWorkers(t *testing.T) {
	const n, d, m, p = 2000, 44, 10, 4 // d = 44: the PAMAP-like generator's dimension
	const eps = 0.1
	rows := gen.LowRankMatrix(gen.PAMAPLike(n))
	sites := make([]int, n)
	for i := range sites {
		sites[i] = (i / 29) % m
	}
	type state struct {
		snap  []byte
		gram  []float64
		stats any
	}
	run := func(w int) state {
		withProcs(t, w)
		st := NewShardedTracker(p, m, func(_, sites int) Tracker { return NewP2Fast(sites, eps, d) })
		defer st.Close()
		if got := len(st.queues); got != min(p, w) {
			t.Fatalf("GOMAXPROCS %d: %d workers for %d shards, want %d", w, got, p, min(p, w))
		}
		feedSharded(st, rows, sites)
		snap, err := st.SnapshotShardedP2()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return state{buf.Bytes(), st.Gram().RawData(), st.Stats()}
	}
	want := run(p)
	for _, w := range []int{1, 2} {
		got := run(w)
		if !bytes.Equal(got.snap, want.snap) {
			t.Errorf("W=%d: shard snapshots differ from W=%d's", w, p)
		}
		for k, v := range want.gram {
			if math.Float64bits(got.gram[k]) != math.Float64bits(v) {
				t.Fatalf("W=%d: Gram entry %d is %v, %v at W=%d", w, k, got.gram[k], v, p)
			}
		}
		if got.stats != want.stats {
			t.Errorf("W=%d: tallies %v, %v at W=%d", w, got.stats, want.stats, p)
		}
	}
}

// TestShardedPersistRoundTrip holds property 5 at the core level: the
// snapshot of a half-fed sharded P2 restores bit-exactly (including the
// site count and per-shard tallies), and continued identical ingestion
// keeps the restored tracker on the original's trajectory.
func TestShardedPersistRoundTrip(t *testing.T) {
	const n, d, m, p = 1500, 44, 3, 3 // d = 44: the PAMAP-like generator's dimension
	const eps = 0.2
	rows := gen.LowRankMatrix(gen.PAMAPLike(n))
	sites := make([]int, n)
	for i := range sites {
		sites[i] = (i / 11) % m
	}
	orig := NewShardedTracker(p, m, func(_, sites int) Tracker { return NewP2Fast(sites, eps, d) })
	defer orig.Close()
	half := n / 2
	feedSharded(orig, rows[:half], sites[:half])

	snap, err := orig.SnapshotShardedP2()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreShardedP2(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	resnap, err := restored.SnapshotShardedP2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, resnap) {
		t.Fatal("restored snapshot diverges from saved snapshot")
	}

	feedSharded(orig, rows[half:], sites[half:])
	feedSharded(restored, rows[half:], sites[half:])
	if a, b := orig.Gram().RawData(), restored.Gram().RawData(); !reflect.DeepEqual(a, b) {
		t.Error("post-restore ingestion diverges from the original trajectory")
	}
	if a, b := orig.Stats(), restored.Stats(); a != b {
		t.Errorf("post-restore tallies diverge:\noriginal: %v\nrestored: %v", a, b)
	}

	sampled := NewShardedTracker(2, m, func(_, sites int) Tracker { return NewP3(sites, eps, d, 1) })
	if sampled.SnapshotableP2() {
		t.Error("SnapshotableP2() = true for P3 shards")
	}
	if _, err := sampled.SnapshotShardedP2(); err == nil {
		t.Error("snapshot of P3 shards succeeded, want error")
	}
	sampled.Close()
}

// TestShardedSpeedupGuard holds 4 shards over the fast-mode blocked path at
// ≥ 2× the rows/sec of the single fast tracker. Real parallelism is required, so the
// guard runs only with ≥4 procs available (the CI perf-guard job's runners;
// a laptop container pinned to one core skips). Best-of-3 on each side
// absorbs scheduler noise; the expected margin at 4 workers is well above
// the floor.
func TestShardedSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const need = 4
	if procs := runtime.GOMAXPROCS(0); procs < need {
		t.Skipf("scaling guard needs ≥%d procs, have %d", need, procs)
	}
	rows := gen.LowRankMatrix(gen.PAMAPLike(24_000))
	const m, d, block = 10, 44, 1024
	const eps = 0.1

	feed := func(tr Tracker) time.Duration {
		start := time.Now()
		for i, site := 0, 0; i < len(rows); i += block {
			end := i + block
			if end > len(rows) {
				end = len(rows)
			}
			tr.ProcessRows(site, rows[i:end])
			site = (site + 1) % m
		}
		tr.Stats() // sharded: merge barrier; bare: cheap copy
		return time.Since(start)
	}
	best := func(mk func() Tracker) float64 {
		bestSec := 0.0
		for rep := 0; rep < 3; rep++ {
			tr := mk()
			sec := feed(tr).Seconds()
			if st, ok := tr.(*ShardedTracker); ok {
				st.Close()
			}
			if bestSec == 0 || sec < bestSec {
				bestSec = sec
			}
		}
		return bestSec
	}

	singleSec := best(func() Tracker { return NewP2Fast(m, eps, d) })
	shardedSec := best(func() Tracker {
		return NewShardedTracker(need, m, func(_, sites int) Tracker { return NewP2Fast(sites, eps, d) })
	})
	if shardedSec <= 0 {
		return // timer resolution floor: unmeasurably fast is a pass
	}
	ratio := singleSec / shardedSec
	t.Logf("single fast %.1fms, %d-shard fast %.1fms: %.2fx", singleSec*1e3, need, shardedSec*1e3, ratio)
	if ratio < 2 {
		t.Errorf("sharded ingest only %.2fx faster than single-shard fast at %d workers, want ≥ 2x", ratio, need)
	}
}

// TestShardedMessagesMatchOneTracker: on sharded-query's stream shape (m =
// 10, ε = 0.1, 64-row blocks, one site per block in rotation), four fast
// P2 shards that own sites send within 10 % of the messages one fast P2
// sends (0.99× here).
func TestShardedMessagesMatchOneTracker(t *testing.T) {
	const m, p, d, eps, block, blocks = 10, 4, 44, 0.1, 64, 1500
	rows := gen.LowRankMatrix(gen.PAMAPLike(block * blocks))
	one := NewP2Fast(m, eps, d)
	sharded := NewShardedTracker(p, m, func(_, sites int) Tracker { return NewP2Fast(sites, eps, d) })
	defer sharded.Close()
	for b := 0; b < blocks; b++ {
		blk := rows[b*block : (b+1)*block]
		one.ProcessRows(b%m, blk)
		sharded.ProcessRows(b%m, blk)
	}
	base := float64(one.Stats().Total())
	owned := float64(sharded.Stats().Total())
	t.Logf("messages per row: one tracker %.5f, %d site-owning shards %.5f (%.2f×)",
		base/(block*blocks), p, owned/(block*blocks), owned/base)
	if math.Abs(owned/base-1) > 0.1 {
		t.Errorf("%d shards sent %.0f messages, one tracker %.0f: want within 10 %%", p, owned, base)
	}
}

// TestShardedHeapBelowRoundRobin: four site-owning P2 shards at m = 10,
// d = 256 hold m + P = 14 d×d Grams where the round-robin deal's shards,
// each over all m sites, held P·(m + 1) = 44. Fed a block at every site
// three times, one block in flight at a time (so the staging pool, the
// same on both sides, holds one copy), the sharded tracker must grow the
// heap by under half of what the same engine over all-site shards grows it
// by.
func TestShardedHeapBelowRoundRobin(t *testing.T) {
	const m, p, d, eps, block, rounds = 10, 4, 256, 0.1, 64, 3
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, m*block)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	growth := func(sites func(int) int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := NewShardedTracker(p, m, func(_, owned int) Tracker { return NewP2Fast(sites(owned), eps, d) })
		defer st.Close()
		for b := 0; b < rounds*m; b++ {
			site := b % m
			st.ProcessRows(site, rows[site*block:(site+1)*block])
			st.Flush()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(st)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	owned := growth(func(owned int) int { return owned })
	all := growth(func(int) int { return m })
	gram := float64(d * d * 8)
	t.Logf("heap growth: site-owning shards %.1f MB (%.1f Grams), all-site shards %.1f MB (%.1f Grams)",
		float64(owned)/1e6, float64(owned)/gram, float64(all)/1e6, float64(all)/gram)
	if 2*owned >= all {
		t.Errorf("site-owning shards grew the heap by %.1f MB, all-site shards %.1f MB: want under half", float64(owned)/1e6, float64(all)/1e6)
	}
}
