package hh

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/gen"
)

// TestHHSimulatorSnapshotRoundTrip gob round-trips a P2 snapshot and
// checks query answers are identical: what internal/service's checkpointer
// relies on for a heavy-hitters tracker.
func TestHHSimulatorSnapshotRoundTrip(t *testing.T) {
	p := NewP2(4, 0.05)
	cfg := gen.DefaultZipfConfig(20_000)
	items := gen.ZipfStream(cfg)
	for i, it := range items {
		p.Process(i%4, it.Elem, it.Weight)
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
	if q.EstimateTotal() != p.EstimateTotal() {
		t.Fatalf("total %v after restore, want %v", q.EstimateTotal(), p.EstimateTotal())
	}
	if q.Stats() != p.Stats() {
		t.Fatalf("stats %v after restore, want %v", q.Stats(), p.Stats())
	}
	want := HeavyHitters(p, 0.02)
	got := HeavyHitters(q, 0.02)
	if len(got) != len(want) {
		t.Fatalf("%d heavy hitters after restore, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("heavy hitter %d = %+v after restore, want %+v", i, got[i], want[i])
		}
	}
}
