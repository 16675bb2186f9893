package service_test

import (
	"context"
	"math"
	"sync"
	"testing"

	distmat "repro"
	"repro/internal/service"
)

// TestQueryHeavyHittersConsistentUnderIngest pins the single-snapshot
// query contract: the hits and the snapshot QueryHeavyHitters returns
// describe the same instant, so every hit appears in the snapshot's
// candidate list with a bit-identical weight even while feeders hammer
// the tracker. (The pre-fix handler read the hits and the snapshot under
// two separate lock acquisitions; concurrent ingest between them drifted
// the weights apart.) Run under -race this also exercises the ingest
// and query locking.
func TestQueryHeavyHittersConsistentUnderIngest(t *testing.T) {
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	tr, err := mgr.Create("hot", service.Spec{
		Kind: service.KindHH, Sites: 4, Epsilon: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	ctx := context.Background()
	for site := 0; site < 4; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				items := make([]distmat.WeightedItem, 16)
				for k := range items {
					seq := n*16 + k
					items[k] = distmat.WeightedItem{Elem: uint64(seq*seq) % 64, Weight: 1}
				}
				if err := tr.IngestItems(ctx, site, items); err != nil {
					errs <- err
					return
				}
			}
		}(site)
	}

	for i := 0; i < 300; i++ {
		hits, snap, err := tr.QueryHeavyHitters(0.02)
		if err != nil {
			t.Fatal(err)
		}
		est := make(map[uint64]float64, len(snap.Estimates))
		for _, e := range snap.Estimates {
			est[e.Elem] = e.Weight
		}
		for _, h := range hits {
			w, ok := est[h.Elem]
			if !ok {
				t.Fatalf("iter %d: hit %d missing from the same-snapshot candidates", i, h.Elem)
			}
			if math.Float64bits(w) != math.Float64bits(h.Weight) {
				t.Fatalf("iter %d: hit %d weight %v, snapshot says %v — torn read", i, h.Elem, h.Weight, w)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestQueryQuantilesMonotoneUnderIngest pins the multi-φ contract: all
// values QueryQuantiles returns cut one digest instant, so they are
// monotone in φ. Feeders alternate extreme-valued batches, so answers
// computed under the old one-lock-per-φ scheme would interleave with
// distribution shifts and break monotonicity.
func TestQueryQuantilesMonotoneUnderIngest(t *testing.T) {
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	tr, err := mgr.Create("lat", service.Spec{
		Kind: service.KindQuantile, Sites: 2, Epsilon: 0.05, Bits: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	ctx := context.Background()
	// Site 0 floods the bottom of the value universe, site 1 the top, so
	// the distribution is shifting violently the whole run.
	for site := 0; site < 2; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			val := uint64(5)
			if site == 1 {
				val = 4000
			}
			items := make([]distmat.WeightedItem, 32)
			for k := range items {
				items[k] = distmat.WeightedItem{Elem: val, Weight: 1}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tr.IngestItems(ctx, site, items); err != nil {
					errs <- err
					return
				}
			}
		}(site)
	}

	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	for i := 0; i < 300; i++ {
		vals, snap, err := tr.QueryQuantiles(phis)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(phis) {
			t.Fatalf("iter %d: %d values for %d phis", i, len(vals), len(phis))
		}
		for j := 1; j < len(vals); j++ {
			if vals[j] < vals[j-1] {
				t.Fatalf("iter %d: quantiles not monotone across one snapshot: φ=%v→%d > φ=%v→%d (count %d)",
					i, phis[j-1], vals[j-1], phis[j], vals[j], snap.Count)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
