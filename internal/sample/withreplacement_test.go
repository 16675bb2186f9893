package sample

import (
	"math"
	"math/rand"
	"testing"
)

// feedWR drives a WRSampler with a synthetic stream, handling the site-side
// priority draws and threshold bookkeeping as the P3wr protocol would.
func feedWR(w *WRSampler, n int, beta float64, rng *rand.Rand) (total float64, exact map[uint64]float64) {
	exact = make(map[uint64]float64)
	for i := 0; i < n; i++ {
		key := uint64(rng.Intn(10))
		wi := 1 + rng.Float64()*(beta-1)
		total += wi
		exact[key] += wi
		idx, pri := SitePriorities(wi, w.Threshold(), w.Samplers(), rng)
		for t := range idx {
			w.Offer(idx[t], Prioritized{Key: key, Weight: wi, Priority: pri[t]})
		}
	}
	return total, exact
}

func TestWRSamplerUnbiasedTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const trials = 30
	var relBias float64
	for trial := 0; trial < trials; trial++ {
		w := NewWRSampler(128)
		total, _ := feedWR(w, 3000, 10, rng)
		relBias += (w.EstimateTotal() - total) / total
	}
	relBias /= trials
	if math.Abs(relBias) > 0.05 {
		t.Fatalf("average relative bias %v too large", relBias)
	}
}

func TestWRSamplerKeyEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewWRSampler(600)
	total, exact := feedWR(w, 20000, 5, rng)
	got := map[uint64]float64{} // key → (#samplers holding key)·Ŵ/s
	for _, e := range w.Sample() {
		got[e.Key] += e.Weight
	}
	for key, fe := range exact {
		if math.Abs(got[key]-fe) > 0.15*total {
			t.Fatalf("key %d estimate %v exact %v (W=%v)", key, got[key], fe, total)
		}
	}
}

func TestWRSamplerSampleSizeAndWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := NewWRSampler(50)
	feedWR(w, 2000, 4, rng)
	s := w.Sample()
	if len(s) != 50 {
		t.Fatalf("sample size %d want 50", len(s))
	}
	// All adjusted weights must equal Ŵ/s.
	want := w.EstimateTotal() / 50
	for _, e := range s {
		if math.Abs(e.Weight-want) > 1e-9 {
			t.Fatalf("adjusted weight %v want %v", e.Weight, want)
		}
	}
}

func TestWRSamplerRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := NewWRSampler(8)
	feedWR(w, 5000, 8, rng)
	if w.Threshold() < 2 {
		t.Fatalf("τ = %v: the threshold never doubled on a 5000-element stream", w.Threshold())
	}
}

func TestWRSamplerOfferValidation(t *testing.T) {
	w := NewWRSampler(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range sampler index")
		}
	}()
	w.Offer(4, Prioritized{})
}

func TestWRSamplerTopTwoMaintenance(t *testing.T) {
	w := NewWRSampler(1)
	w.Offer(0, Prioritized{Key: 1, Priority: 5})
	w.Offer(0, Prioritized{Key: 2, Priority: 3})
	w.Offer(0, Prioritized{Key: 3, Priority: 10})
	// top1=10 (key 3), top2=5.
	if w.EstimateTotal() != 5 {
		t.Fatalf("Ŵ = %v want 5 (the second priority)", w.EstimateTotal())
	}
	s := w.Sample()
	if len(s) != 1 || s[0].Key != 3 {
		t.Fatalf("sample = %+v want key 3", s)
	}
}

func TestSitePrioritiesThresholdFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// With τ huge, almost nothing passes; with τ ≤ w everything passes.
	idx, _ := SitePriorities(2, 2, 100, rng)
	if len(idx) != 100 {
		t.Fatalf("τ ≤ w must pass all samplers, got %d/100", len(idx))
	}
	passed := 0
	for trial := 0; trial < 200; trial++ {
		idx, _ := SitePriorities(1, 1e6, 10, rng)
		passed += len(idx)
	}
	if passed > 40 { // E = 200·10·1e-6 = 0.002
		t.Fatalf("too many passes at huge τ: %d", passed)
	}
}

func TestNewWRSamplerValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWRSampler(0)
}
