package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// decodeShardedStream deterministically expands fuzz bytes into a blocked
// d-dimensional site stream with small integer-derived entries (never
// NaN/Inf). Each segment starts with a length byte and a site byte, so the
// fuzzer explores arbitrary block splits AND arbitrary site interleavings
// of the same stream.
func decodeShardedStream(data []byte, d, m int) (rows [][]float64, splits, sites []int) {
	i := 0
	for i+1 < len(data) {
		n := 1 + int(data[i]%7)
		site := int(data[i+1]) % m
		i += 2
		batch := 0
		for r := 0; r < n && i+d <= len(data); r++ {
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				row[j] = float64(int8(data[i+j])) / 8
			}
			i += d
			rows = append(rows, row)
			batch++
		}
		splits = append(splits, batch)
		sites = append(sites, site)
	}
	return rows, splits, sites
}

// FuzzShardedMergeEquivalence feeds arbitrary row streams, split at
// arbitrary block boundaries across arbitrary shard counts, and asserts
// the sharded contract against the single-tracker exact oracle:
//
//   - the merged Gram stays within the covariance-error bound of the exact
//     stream Gram AᵀA (per-shard bounds add across the merge);
//   - a gob round-trip of the sharded snapshot restores bit-exactly (same
//     snapshot, same merged Gram bits), and continued identical ingestion
//     keeps the restored tracker on the original's trajectory;
//   - none of it depends on the worker count: the tracker runs on
//     min(P, 1…4) workers and is restored onto another count.
func FuzzShardedMergeEquivalence(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(3), uint8(1), uint8(0))
	f.Add([]byte{1, 9, 200, 100, 0, 2, 1, 9, 9, 9, 9}, uint8(4), uint8(2), uint8(2), uint8(13))
	f.Add(bytes.Repeat([]byte{5, 2, 250, 17, 130, 4}, 40), uint8(3), uint8(4), uint8(0), uint8(6))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, pB, dB, mB, wB uint8) {
		p := 1 + int(pB%5) // 1..5 shards
		d := 1 + int(dB%6) // dims 1..6
		m := 1 + int(mB%4) // sites 1..4
		const eps = 0.25
		rows, splits, sites := decodeShardedStream(data, d, m)
		withProcs(t, 1+int(wB%4)) // the tracker's workers: min(P, 1..4)

		// Fast-mode P2 shards: the configuration the service's
		// highest-throughput path runs, and the persistable one.
		sharded := NewShardedTracker(p, m, func(_, sites int) Tracker { return NewP2Fast(sites, eps, d) })
		defer sharded.Close()
		if got := sharded.ShardCount(); got != min(p, m) {
			t.Fatalf("%d shards over %d sites: ShardCount() = %d", p, m, got)
		}
		exact := matrix.NewSym(d)
		fed := make([]int64, sharded.ShardCount())
		start := 0
		for bi, n := range splits {
			block := rows[start : start+n]
			sharded.ProcessRows(sites[bi], block)
			fed[sites[bi]%len(fed)] += int64(n)
			for _, row := range block {
				exact.AddOuter(1, row)
			}
			start += n
		}
		assertCovarianceBound(t, "sharded-merge", start, exact, sharded.Gram(), eps)
		// Shard k holds exactly the rows of the sites ≡ k (mod P).
		if got := sharded.ShardRows(); !reflect.DeepEqual(got, fed) {
			t.Fatalf("ShardRows() = %v, rows fed per site class = %v", got, fed)
		}

		// Persisted form: a gob round-trip restores bit-exactly.
		snap, err := sharded.SnapshotShardedP2()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatalf("encoding snapshot: %v", err)
		}
		var decoded ShardedP2Snapshot
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatalf("decoding snapshot: %v", err)
		}
		runtime.GOMAXPROCS(1 + int(wB/4%4)) // restored onto another worker count
		restored, err := RestoreShardedP2(decoded)
		if err != nil {
			t.Fatalf("restoring snapshot: %v", err)
		}
		defer restored.Close()
		resnap, err := restored.SnapshotShardedP2()
		if err != nil {
			t.Fatalf("re-snapshot: %v", err)
		}
		if !reflect.DeepEqual(snap, resnap) {
			t.Fatalf("restored snapshot diverges:\nwant: %+v\ngot:  %+v", snap, resnap)
		}
		if a, b := sharded.Gram().RawData(), restored.Gram().RawData(); !reflect.DeepEqual(a, b) {
			t.Fatal("restored merged Gram diverges bit-wise")
		}

		// Continued ingestion after restore stays on the same trajectory.
		if len(rows) > 0 {
			sharded.ProcessRows(0, rows)
			restored.ProcessRows(0, rows)
			a, err := sharded.SnapshotShardedP2()
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.SnapshotShardedP2()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("post-restore ingestion diverges:\nwant: %+v\ngot:  %+v", a, b)
			}
		}
	})
}
