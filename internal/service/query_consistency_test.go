package service_test

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	distmat "repro"
	"repro/internal/service"
)

// TestQueryHeavyHittersConsistentUnderIngest pins the single-instant
// query contract: the hits, the count and the Ŵ QueryHeavyHitters returns
// describe the same instant even while feeders hammer the tracker. Every
// feeder posts the same batch to the same site, so the tracker's state
// after n batches is one state whichever feeder posted them: a reference
// tracker fed n batches in turn gives the hits and Ŵ every answer with
// count 16·n must equal, bit for bit. (Hits from one lock acquisition and
// count/Ŵ from a later one match a later reference, not theirs.) Run under
// -race this also exercises the ingest and query locking.
func TestQueryHeavyHittersConsistentUnderIngest(t *testing.T) {
	const phi, batches = 0.02, 1500
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	spec := service.Spec{Kind: service.KindHH, Sites: 4, Epsilon: 0.02, Seed: 7}
	tr, err := mgr.Create("hot", spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mgr.Create("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]distmat.WeightedItem, 16)
	for k := range batch {
		batch[k] = distmat.WeightedItem{Elem: uint64(k*k) % 64, Weight: 1}
	}
	ctx := context.Background()
	type answer struct {
		hits  []distmat.WeightedElement
		total float64
	}
	want := make([]answer, batches+1)
	for n := range want {
		if n > 0 {
			if err := ref.IngestItems(ctx, 0, batch); err != nil {
				t.Fatal(err)
			}
		}
		hits, at, err := ref.QueryHeavyHitters(phi)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = answer{hits, at.Total}
	}

	var posted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for posted.Add(1) <= batches {
				if err := tr.IngestItems(ctx, 0, batch); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		hits, at, err := tr.QueryHeavyHitters(phi)
		if err != nil {
			t.Fatal(err)
		}
		n := int(at.Count) / len(batch)
		if at.Count%int64(len(batch)) != 0 || n > batches {
			t.Fatalf("iter %d: count %d is no whole number of batches up to %d", i, at.Count, batches)
		}
		if w := want[n]; math.Float64bits(at.Total) != math.Float64bits(w.total) || !slices.Equal(hits, w.hits) {
			t.Fatalf("iter %d, count %d: hits %v, Ŵ %v; the state after %d batches answers %v, Ŵ %v — torn read",
				i, at.Count, hits, at.Total, n, w.hits, w.total)
		}
	}
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
