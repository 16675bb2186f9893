package core

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"

	"repro/internal/gen"
)

// TestMatSimulatorSnapshotRoundTrip gob round-trips a P2 snapshot and
// checks the coordinator estimate is identical: what internal/service's
// checkpointer relies on for a matrix tracker.
func TestMatSimulatorSnapshotRoundTrip(t *testing.T) {
	const m, eps, d = 3, 0.2, 44
	p := NewP2(m, eps, d)
	rows := gen.LowRankMatrix(gen.PAMAPLike(1_500))
	for i := range rows {
		p.ProcessRows(i%m, rows[i:i+1])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded P2Snapshot
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	q, err := RestoreP2(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if q.EstimateFrobenius() != p.EstimateFrobenius() {
		t.Fatalf("F̂ %v after restore, want %v", q.EstimateFrobenius(), p.EstimateFrobenius())
	}
	if q.Stats() != p.Stats() {
		t.Fatalf("stats %v after restore, want %v", q.Stats(), p.Stats())
	}
	if !slices.Equal(q.Gram().RawData(), p.Gram().RawData()) {
		t.Fatal("Gram estimate differs after restore")
	}
}
