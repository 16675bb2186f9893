package quantile

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// TestRestoreQDigestRejectsNonFinite: a snapshot whose total or any node
// weight is NaN, infinite or negative is an error, never a digest that
// answers from poisoned state and never a panic.
func TestRestoreQDigestRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]struct {
		weight float64
		counts map[uint64]float64
		ok     bool
	}{
		"valid":                    {5, map[uint64]float64{300: 2, 1: 3}, true},
		"negative zero node":       {0, map[uint64]float64{300: math.Copysign(0, -1)}, true},
		"NaN node, +Inf total":     {inf, map[uint64]float64{300: nan}, false},
		"NaN node":                 {1, map[uint64]float64{300: nan}, false},
		"+Inf node":                {1, map[uint64]float64{300: inf}, false},
		"-Inf node":                {1, map[uint64]float64{300: -inf}, false},
		"negative node":            {1, map[uint64]float64{300: -1}, false},
		"NaN total":                {nan, map[uint64]float64{300: 1}, false},
		"+Inf total":               {inf, map[uint64]float64{300: 1}, false},
		"-Inf total":               {-inf, nil, false},
		"negative total":           {-1, map[uint64]float64{300: 1}, false},
		"node outside the tree":    {1, map[uint64]float64{1 << 9: 1}, false},
		"node zero":                {1, map[uint64]float64{0: 1}, false},
		"empty":                    {0, nil, true},
		"largest finite weights":   {math.MaxFloat64, map[uint64]float64{511: math.MaxFloat64}, true},
		"smallest positive weight": {5e-324, map[uint64]float64{256: 5e-324}, true},
	} {
		q, err := RestoreQDigest(QDigestSnapshot{Bits: 8, Eps: 0.1, Weight: c.weight, Counts: c.counts, CompressAt: 64})
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", name, err, c.ok)
			continue
		}
		if err == nil && q.weight != c.weight {
			t.Errorf("%s: restored weight %v, want %v", name, q.weight, c.weight)
		}
	}
}

// TestQuantileSnapshotRoundTrip gob round-trips the tracker and checks
// quantile answers are identical, then resumes ingestion on the restored
// tracker to confirm the guarantee survives: what internal/service's
// checkpointer relies on for a quantile tracker.
func TestQuantileSnapshotRoundTrip(t *testing.T) {
	const m, eps, bits = 4, 0.05, 12
	tr := NewTracker(m, eps, bits)
	for i := 0; i < 30_000; i++ {
		tr.Process(i%m, uint64(i%(1<<bits)), 1+float64(i%3))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var decoded TrackerSnapshot
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTracker(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if restored.EstimateTotal() != tr.EstimateTotal() {
		t.Fatalf("total %v after restore, want %v", restored.EstimateTotal(), tr.EstimateTotal())
	}
	if restored.Stats() != tr.Stats() {
		t.Fatalf("stats %v after restore, want %v", restored.Stats(), tr.Stats())
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := restored.Quantile(phi), tr.Quantile(phi); got != want {
			t.Fatalf("quantile(%v) = %d after restore, want %d", phi, got, want)
		}
	}
	// Resume both and confirm they stay in lockstep.
	for i := 0; i < 10_000; i++ {
		v, w := uint64((7*i)%(1<<bits)), 1+float64(i%2)
		tr.Process(i%m, v, w)
		restored.Process(i%m, v, w)
	}
	for _, phi := range []float64{0.1, 0.5, 0.95} {
		if got, want := restored.Quantile(phi), tr.Quantile(phi); got != want {
			t.Fatalf("quantile(%v) = %d after resume, want %d", phi, got, want)
		}
	}
}
