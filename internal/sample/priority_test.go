package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPriorityDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// P(ρ ≥ τ) = min(1, w/τ).
	const n = 200000
	w, tau := 2.0, 8.0
	hits := 0
	for i := 0; i < n; i++ {
		if Priority(w, rng) >= tau {
			hits++
		}
	}
	got := float64(hits) / n
	want := w / tau
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("P(ρ≥τ) = %v want %v", got, want)
	}
}

func TestPriorityPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Priority(0, rand.New(rand.NewSource(1)))
}

func TestPrioritySamplerRoundDoubling(t *testing.T) {
	p := NewPrioritySampler(4)
	if p.Threshold() != 1 {
		t.Fatalf("initial τ = %v want 1", p.Threshold())
	}
	// Four elements with priority ≥ 2τ must end the round.
	ended := false
	for i := 0; i < 4; i++ {
		ended = p.Offer(Prioritized{Key: uint64(i), Weight: 1, Priority: 3})
	}
	if !ended {
		t.Fatal("round should have ended after s high-priority offers")
	}
	if p.Threshold() != 2 {
		t.Fatalf("τ = %v want 2 after round", p.Threshold())
	}
}

func TestPrioritySamplerRePartition(t *testing.T) {
	p := NewPrioritySampler(2)
	// Priorities 100 and 200 are ≥ 2τ for several doublings.
	p.Offer(Prioritized{Key: 1, Weight: 1, Priority: 100})
	p.Offer(Prioritized{Key: 2, Weight: 1, Priority: 200})
	// After round end τ=2; both still ≥ 4 → immediately re-split, possibly
	// cascading. Both elements must be retained.
	if p.Size() != 2 {
		t.Fatalf("Size = %d want 2", p.Size())
	}
}

func TestPrioritySamplerIgnoresStale(t *testing.T) {
	p := NewPrioritySampler(2)
	p.Offer(Prioritized{Key: 1, Weight: 1, Priority: 8})
	p.Offer(Prioritized{Key: 2, Weight: 1, Priority: 8})
	// τ is now 2. A stale priority below τ must be dropped.
	before := p.Size()
	p.Offer(Prioritized{Key: 3, Weight: 1, Priority: 1.5})
	if p.Size() != before {
		t.Fatal("stale offer should be ignored")
	}
}

// Property: the total-weight estimator is unbiased within sampling error.
func TestPrioritySamplerUnbiasedTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const trials = 60
	var relErrSum float64
	for trial := 0; trial < trials; trial++ {
		p := NewPrioritySampler(256)
		var w float64
		for i := 0; i < 5000; i++ {
			wi := 1 + rng.Float64()*9
			w += wi
			rho := Priority(wi, rng)
			if rho >= p.Threshold() {
				p.Offer(Prioritized{Key: uint64(i), Weight: wi, Priority: rho})
			}
		}
		est := p.EstimateTotal()
		relErrSum += (est - w) / w
	}
	avgBias := relErrSum / trials
	if math.Abs(avgBias) > 0.02 {
		t.Fatalf("average relative bias %v too large", avgBias)
	}
}

// Property: per-key estimates track exact frequencies within εW for
// s = (1/ε²)·ln(1/ε).
func TestPrioritySamplerKeyEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eps := 0.1
	p := NewPrioritySampler(RecommendedSampleSize(eps))
	exact := make(map[uint64]float64)
	var w float64
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(20))
		wi := 1 + rng.Float64()*4
		exact[key] += wi
		w += wi
		rho := Priority(wi, rng)
		if rho >= p.Threshold() {
			p.Offer(Prioritized{Key: key, Weight: wi, Priority: rho})
		}
	}
	for key, fe := range exact {
		got := p.EstimateKey(key)
		if math.Abs(got-fe) > eps*w {
			t.Fatalf("key %d: estimate %v exact %v exceeds εW = %v", key, got, fe, eps*w)
		}
	}
	// EstimateAll must agree with EstimateKey.
	for _, kw := range p.EstimateAll() {
		if math.Abs(kw.Weight-p.EstimateKey(kw.Key)) > 1e-9 {
			t.Fatal("EstimateAll inconsistent with EstimateKey")
		}
	}
}

func TestSampleDropsMinPriority(t *testing.T) {
	p := NewPrioritySampler(8)
	for i := 0; i < 5; i++ {
		p.Offer(Prioritized{Key: uint64(i), Weight: 1, Priority: float64(i) + 1})
	}
	items, rhoHat := p.Sample()
	if len(items) != 4 {
		t.Fatalf("sample size %d want 4", len(items))
	}
	if rhoHat != 1 {
		t.Fatalf("ρ̂ = %v want 1 (the min priority)", rhoHat)
	}
	for _, e := range items {
		if e.Weight < rhoHat {
			t.Fatal("adjusted weight below ρ̂")
		}
	}
}

func TestSampleEmptyAndSingleton(t *testing.T) {
	p := NewPrioritySampler(4)
	if items, _ := p.Sample(); items != nil {
		t.Fatal("empty sampler should give nil sample")
	}
	p.Offer(Prioritized{Key: 1, Weight: 1, Priority: 1})
	if items, _ := p.Sample(); items != nil {
		t.Fatal("singleton sampler should give nil sample")
	}
}

func TestRecommendedSampleSize(t *testing.T) {
	if s := RecommendedSampleSize(0.1); s != int(math.Ceil(100*math.Log(10))) {
		t.Fatalf("s(0.1) = %d", s)
	}
	if s := RecommendedSampleSize(0.9); s != 16 {
		t.Fatalf("clamp failed: %d", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad ε")
		}
	}()
	RecommendedSampleSize(0)
}

// Property: number of rounds grows logarithmically with total weight.
func TestRoundsLogarithmic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 32
		p := NewPrioritySampler(s)
		n := 2000
		beta := 8.0
		var w float64
		for i := 0; i < n; i++ {
			wi := 1 + rng.Float64()*(beta-1)
			w += wi
			rho := Priority(wi, rng)
			if rho >= p.Threshold() {
				p.Offer(Prioritized{Key: uint64(i), Weight: wi, Priority: rho})
			}
		}
		// Lemma 4: rounds = O(log(βN/s)); allow constant 3 plus slack.
		bound := 3*math.Log2(beta*float64(n)/float64(s)) + 8
		return math.Log2(p.Threshold()) <= bound // τ = 2^rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
