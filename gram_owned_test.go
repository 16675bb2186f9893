package distmat_test

import (
	"fmt"
	"math"
	"testing"

	distmat "repro"
)

// TestGramIsCallerOwned holds every registered matrix protocol — exact and
// fast, plain, sharded and windowed — to core.Tracker.Gram's contract: the
// returned matrix is the caller's. Session.Snapshot hands it out as the
// immutable view without copying it again, so a tracker returning its live
// coordinator state would let a snapshot's reader and the next ingest write
// the same floats. Mutate the result, ask again, compare bits.
func TestGramIsCallerOwned(t *testing.T) {
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(300))
	for _, proto := range distmat.MatrixProtocols() {
		for _, v := range []struct {
			name string
			opts []distmat.Option
		}{
			{"exact", nil},
			{"fast", []distmat.Option{distmat.WithFastIngest()}},
			{"sharded", []distmat.Option{distmat.WithShards(3)}},
			{"fast-sharded", []distmat.Option{distmat.WithFastIngest(), distmat.WithShards(3)}},
			{"windowed", []distmat.Option{distmat.WithWindow(100)}},
			{"fast-windowed", []distmat.Option{distmat.WithFastIngest(), distmat.WithWindow(100)}},
		} {
			t.Run(fmt.Sprintf("%s/%s", proto, v.name), func(t *testing.T) {
				opts := append([]distmat.Option{distmat.WithSites(4), distmat.WithEpsilon(0.2), distmat.WithDim(44), distmat.WithSeed(7)}, v.opts...)
				sess, err := distmat.NewMatrixSession(proto, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				if err := sess.ProcessRows(rows); err != nil {
					t.Fatal(err)
				}
				for _, ask := range []struct {
					name string
					gram func() *distmat.Sym
				}{
					{"Session.Gram", sess.Gram},
					{"Snapshot.Gram", func() *distmat.Sym { return sess.Snapshot().Gram }},
				} {
					first := ask.gram()
					want := first.RawData()
					for i := 0; i < first.Dim(); i++ {
						for j := i; j < first.Dim(); j++ {
							first.Set(i, j, -3*first.At(i, j))
						}
					}
					first.Set(0, 1, math.Inf(1))
					for i, got := range ask.gram().RawData() {
						if math.Float64bits(got) != math.Float64bits(want[i]) {
							t.Fatalf("%s: entry %d reads %v after the caller wrote to the earlier result, was %v: the tracker returned live state", ask.name, i, got, want[i])
						}
					}
				}
			})
		}
	}
}

// TestShardedSnapshotAllocs pins what a Snapshot of an idle 4-shard session
// costs: the merged Gram and the per-shard tallies, and no flush barrier —
// every block is already applied, so none of Stats, Gram and
// EstimateFrobenius has anything to wait for (each used to send a barrier
// down every queue: 12 channels a Snapshot).
func TestShardedSnapshotAllocs(t *testing.T) {
	sess, err := distmat.NewMatrixSession("p2", distmat.WithSites(4), distmat.WithEpsilon(0.1),
		distmat.WithDim(44), distmat.WithFastIngest(), distmat.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.ProcessRows(distmat.LowRankMatrix(distmat.PAMAPLike(512))); err != nil {
		t.Fatal(err)
	}
	sess.Snapshot()
	if allocs := testing.AllocsPerRun(50, func() { sess.Snapshot() }); allocs > 2 {
		t.Errorf("Snapshot of an idle 4-shard session: %v allocs, want ≤ 2 (the merged Gram)", allocs)
	}
}
