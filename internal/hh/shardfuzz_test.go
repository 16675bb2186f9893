package hh

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// decodeItemStream deterministically expands fuzz bytes into a batched
// weighted item stream. Each segment starts with a length byte and a site
// byte, then (elem, weight) byte pairs — so the fuzzer explores arbitrary
// batch splits AND arbitrary site interleavings of the same stream, with
// weights always positive and elements from a small colliding universe.
func decodeItemStream(data []byte, m int) (items []gen.WeightedItem, splits, sites []int) {
	i := 0
	for i+1 < len(data) {
		n := 1 + int(data[i]%9)
		site := int(data[i+1]) % m
		i += 2
		batch := 0
		for r := 0; r < n && i+2 <= len(data); r++ {
			items = append(items, gen.WeightedItem{
				Elem:   uint64(data[i] % 37),
				Weight: 1 + float64(data[i+1]%8),
			})
			i += 2
			batch++
		}
		splits = append(splits, batch)
		sites = append(sites, site)
	}
	return items, splits, sites
}

// FuzzShardedItemMergeEquivalence feeds arbitrary item streams, split at
// arbitrary batch boundaries across arbitrary shard counts, and asserts
// the sharded contract against the unsharded oracle:
//
//   - with one shard the merged view is exactly the unsharded P2 on the
//     same feed (estimates, total, tallies, shard-0 snapshot);
//   - for any P every merged estimate stays within εW of the exact
//     frequency (per-shard bounds add, Σ ε·W_k = εW) and the merged total
//     within εW + P (each shard's initial lower bound of 1);
//   - a gob round-trip of the sharded snapshot restores bit-exactly, and
//     continued identical ingestion stays on the original's trajectory;
//   - none of it depends on the worker count: the tracker runs on
//     min(P, 1…4) workers and is restored onto another count.
func FuzzShardedItemMergeEquivalence(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(3), uint8(0))
	f.Add([]byte{1, 9, 200, 100, 0, 2, 1, 9, 9, 9, 9}, uint8(4), uint8(2), uint8(13))
	f.Add(bytes.Repeat([]byte{5, 2, 250, 17, 130, 4}, 40), uint8(1), uint8(4), uint8(6))
	f.Add([]byte{}, uint8(3), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, pB, mB, wB uint8) {
		p := 1 + int(pB%5) // 1..5 shards
		m := 1 + int(mB%4) // 1..4 sites
		const eps = 0.2
		items, splits, sites := decodeItemStream(data, m)
		withProcs(t, 1+int(wB%4)) // the tracker's workers: min(P, 1..4)

		sharded := NewSharded(p, m, func(_, sites int) Protocol { return NewP2(sites, eps) })
		defer sharded.Close()
		if got := sharded.ShardCount(); got != min(p, m) {
			t.Fatalf("%d shards over %d sites: ShardCount() = %d", p, m, got)
		}
		bare := NewP2(m, eps)
		fed := make([]int64, sharded.ShardCount())
		start := 0
		for bi, n := range splits {
			batch := items[start : start+n]
			sharded.Deal(sites[bi], batch)
			fed[sites[bi]%len(fed)] += int64(n)
			for _, it := range batch {
				bare.Process(sites[bi], it.Elem, it.Weight)
			}
			start += n
		}
		// Shard k holds exactly the items of the sites ≡ k (mod P).
		if got := sharded.ShardRows(); !reflect.DeepEqual(got, fed) {
			t.Fatalf("ShardRows() = %v, items fed per site class = %v", got, fed)
		}

		exact := gen.ExactFrequencies(items[:start])
		w := gen.TotalWeight(items[:start])
		for e, fe := range exact {
			if err := math.Abs(sharded.Estimate(e) - fe); err > eps*w {
				t.Fatalf("P=%d: element %d error %v exceeds εW = %v", p, e, err, eps*w)
			}
		}
		if got := sharded.EstimateTotal(); math.Abs(got-w) > eps*w+float64(p) {
			t.Fatalf("P=%d: merged total %v vs W=%v outside εW+P", p, got, w)
		}

		snap, err := SnapshotSharded(sharded)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if sharded.ShardCount() == 1 {
			// One shard is the unsharded oracle exactly.
			for e := range exact {
				if a, b := bare.Estimate(e), sharded.Estimate(e); a != b {
					t.Fatalf("one-shard Estimate(%d) = %v, oracle %v", e, b, a)
				}
			}
			if a, b := bare.EstimateTotal(), sharded.EstimateTotal(); a != b {
				t.Fatalf("one-shard total %v, oracle %v", b, a)
			}
			if a, b := bare.Stats(), sharded.Stats(); a != b {
				t.Fatalf("one-shard tallies diverge: oracle %v, sharded %v", a, b)
			}
			if want := bare.Snapshot(); !reflect.DeepEqual(want, snap.Shards[0]) {
				t.Fatal("one-shard snapshot diverges from the unsharded oracle")
			}
		}

		// Persisted form: a gob round-trip restores bit-exactly.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatalf("encoding snapshot: %v", err)
		}
		var decoded ShardedP2Snapshot
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatalf("decoding snapshot: %v", err)
		}
		runtime.GOMAXPROCS(1 + int(wB/4%4)) // restored onto another worker count
		restored, err := RestoreSharded(decoded)
		if err != nil {
			t.Fatalf("restoring snapshot: %v", err)
		}
		defer restored.Close()
		resnap, err := SnapshotSharded(restored)
		if err != nil {
			t.Fatalf("re-snapshot: %v", err)
		}
		if !reflect.DeepEqual(snap, resnap) {
			t.Fatalf("restored snapshot diverges:\nwant: %+v\ngot:  %+v", snap, resnap)
		}

		// Continued ingestion after restore stays on the same trajectory.
		if len(items) > 0 {
			sharded.Deal(0, items)
			restored.Deal(0, items)
			a, err := SnapshotSharded(sharded)
			if err != nil {
				t.Fatal(err)
			}
			b, err := SnapshotSharded(restored)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("post-restore ingestion diverges:\nwant: %+v\ngot:  %+v", a, b)
			}
		}
	})
}
