package hh

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// testStream builds a Zipfian weighted stream and its exact frequencies.
func testStream(n int, beta float64, seed int64) ([]gen.WeightedItem, map[uint64]float64, float64) {
	cfg := gen.DefaultZipfConfig(n)
	cfg.Beta = beta
	cfg.Seed = seed
	items := gen.ZipfStream(cfg)
	return items, gen.ExactFrequencies(items), gen.TotalWeight(items)
}

// runProtocol feeds a stream through p with uniform random site assignment.
func runProtocol(p Protocol, items []gen.WeightedItem, m int) {
	Run(p, items, stream.NewUniformRandom(m, 7))
}

// checkFrequencyGuarantee asserts |f_e − Ŵ_e| ≤ slack·W for all elements
// with meaningful mass, returning the worst observed error.
func checkFrequencyGuarantee(t *testing.T, p Protocol, exact map[uint64]float64, w, slack float64) float64 {
	t.Helper()
	worst := 0.0
	for e, fe := range exact {
		err := math.Abs(p.Estimate(e) - fe)
		if err > worst {
			worst = err
		}
		if err > slack*w {
			t.Fatalf("%s: element %d error %v exceeds %v·W = %v (f_e=%v est=%v)",
				p.Name(), e, err, slack, slack*w, fe, p.Estimate(e))
		}
	}
	return worst
}

func TestExactTracker(t *testing.T) {
	items, exact, w := testStream(5000, 100, 1)
	e := NewExact(10)
	runProtocol(e, items, 10)
	if e.EstimateTotal() != w {
		t.Fatalf("total %v want %v", e.EstimateTotal(), w)
	}
	for el, fe := range exact {
		if e.Estimate(el) != fe {
			t.Fatalf("exact tracker wrong for %d", el)
		}
	}
	if e.Stats().UpMsgs != int64(len(items)) {
		t.Fatalf("exact tracker must send every element: %d vs %d", e.Stats().UpMsgs, len(items))
	}
	hh := e.TrueHeavyHitters(0.05)
	if len(hh) == 0 {
		t.Fatal("Zipf(2) stream must have 5%-heavy hitters")
	}
	// Sorted descending.
	for i := 1; i < len(hh); i++ {
		if hh[i].Weight > hh[i-1].Weight {
			t.Fatal("TrueHeavyHitters not sorted")
		}
	}
}

func TestP1Guarantee(t *testing.T) {
	const m, eps = 10, 0.05
	items, exact, w := testStream(20000, 50, 2)
	p := NewP1(m, eps)
	runProtocol(p, items, m)
	checkFrequencyGuarantee(t, p, exact, w, eps)
	// Total weight estimate within ε of W (tally ≥ W − m·τ).
	if got := p.EstimateTotal(); math.Abs(got-w) > eps*w {
		t.Fatalf("P1 total %v vs %v", got, w)
	}
}

func TestP2Guarantee(t *testing.T) {
	const m, eps = 10, 0.05
	items, exact, w := testStream(20000, 50, 3)
	p := NewP2(m, eps)
	runProtocol(p, items, m)
	checkFrequencyGuarantee(t, p, exact, w, eps)
	if got := p.EstimateTotal(); math.Abs(got-w) > eps*w+1 {
		t.Fatalf("P2 total %v vs %v", got, w)
	}
}

func TestP3Guarantee(t *testing.T) {
	const m, eps = 10, 0.1
	items, exact, w := testStream(30000, 20, 5)
	p := NewP3(m, eps, 11)
	runProtocol(p, items, m)
	// Randomized: guarantee holds with large probability; allow slack 1.5ε
	// on a fixed seed.
	checkFrequencyGuarantee(t, p, exact, w, 1.5*eps)
	if got := p.EstimateTotal(); math.Abs(got-w) > 0.5*w {
		t.Fatalf("P3 total %v vs %v", got, w)
	}
}

func TestP4Guarantee(t *testing.T) {
	const m, eps = 9, 0.1
	items, exact, w := testStream(30000, 20, 7)
	p := NewP4(m, eps, 13)
	runProtocol(p, items, m)
	// Theorem 3 holds with probability 0.75; a fixed seed with slack 2ε
	// keeps the test deterministic and meaningful.
	checkFrequencyGuarantee(t, p, exact, w, 2*eps)
	if got := p.EstimateTotal(); math.Abs(got-w) > 0.5*w {
		t.Fatalf("P4 total %v vs %v", got, w)
	}
}

func TestHeavyHittersRule(t *testing.T) {
	// Lemma 1's acceptance rule: every true φ-HH is returned; nothing below
	// (φ−ε)W is returned.
	const m, eps, phi = 10, 0.01, 0.05
	items, exact, w := testStream(50000, 100, 8)
	ex := NewExact(m)
	runProtocol(ex, items, m)
	truth := ex.TrueHeavyHitters(phi)

	for _, p := range []Protocol{NewP1(m, eps), NewP2(m, eps), NewP3(m, eps, 21), NewP4(m, eps, 22)} {
		runProtocol(p, items, m)
		got := HeavyHitters(p, phi)
		gotSet := make(map[uint64]bool)
		for _, e := range got {
			gotSet[e.Elem] = true
		}
		for _, e := range truth {
			if !gotSet[e.Elem] {
				t.Fatalf("%s missed true heavy hitter %d (recall < 1)", p.Name(), e.Elem)
			}
		}
		for _, e := range got {
			if exact[e.Elem] < (phi-2*eps)*w {
				t.Fatalf("%s returned far-below-threshold element %d (f=%v, (φ−2ε)W=%v)",
					p.Name(), e.Elem, exact[e.Elem], (phi-2*eps)*w)
			}
		}
	}
}

func TestCommunicationOrdering(t *testing.T) {
	// P2 must use substantially fewer messages than P1 at small ε, and both
	// must beat the naive baseline (N messages).
	const m, eps = 10, 0.01
	items, _, _ := testStream(100000, 100, 9)
	p1, p2 := NewP1(m, eps), NewP2(m, eps)
	runProtocol(p1, items, m)
	runProtocol(p2, items, m)
	n := int64(len(items))
	if p1.Stats().Total() >= n {
		t.Fatalf("P1 messages %d not below naive %d", p1.Stats().Total(), n)
	}
	if p2.Stats().Total() >= p1.Stats().Total() {
		t.Fatalf("P2 (%d msgs) should beat P1 (%d msgs) at ε=%v",
			p2.Stats().Total(), p1.Stats().Total(), eps)
	}
}

func TestP2MessageBound(t *testing.T) {
	// Theorem 1: O((m/ε)·log(βN)) messages; verify with constant 8.
	const m, eps, beta = 10, 0.02, 50.0
	items, _, _ := testStream(50000, beta, 10)
	p := NewP2(m, eps)
	runProtocol(p, items, m)
	bound := 8 * float64(m) / eps * math.Log2(beta*float64(len(items)))
	if got := float64(p.Stats().Total()); got > bound {
		t.Fatalf("P2 sent %v messages, bound %v", got, bound)
	}
}

func TestP4MessageBound(t *testing.T) {
	// Theorem 3: O((√m/ε)·log(βN)); verify with a generous constant.
	const m, eps, beta = 16, 0.05, 50.0
	items, _, _ := testStream(50000, beta, 11)
	p := NewP4(m, eps, 23)
	runProtocol(p, items, m)
	bound := 20 * math.Sqrt(float64(m)) / eps * math.Log2(beta*float64(len(items)))
	if got := float64(p.Stats().Total()); got > bound {
		t.Fatalf("P4 sent %v messages, bound %v", got, bound)
	}
}

// TestNonFiniteWeightPanics: a NaN or +Inf weight is refused by every
// protocol, as a non-positive one is, rather than poisoning Ŵ.
func TestNonFiniteWeightPanics(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		for _, p := range []Protocol{NewP1(2, 0.1), NewP2(2, 0.1), NewP3(2, 0.1, 1),
			NewP4(2, 0.1, 1), NewP4Median(2, 0.1, 3, 1), NewExact(2)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s took weight %v, want a panic (Ŵ now %v)", p.Name(), w, p.EstimateTotal())
					}
				}()
				p.Process(0, 1, w)
			}()
		}
	}
}

func TestValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewP1(0, 0.1) },
		func() { NewP1(2, 0) },
		func() { NewP2(2, 1.5) },
		func() { NewP3(0, 0.1, 1) },
		func() { NewP4(2, -1, 1) },
		func() { NewP1(2, 0.1).Process(5, 1, 1) },
		func() { NewP1(2, 0.1).Process(0, 1, -1) },
		func() { HeavyHitters(NewP1(2, 0.1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHeavyHittersEmptyProtocol(t *testing.T) {
	p := NewP2(2, 0.1)
	if hh := HeavyHitters(p, 0.1); len(hh) != 0 {
		t.Fatalf("empty protocol returned %v", hh)
	}
}

func TestP3DeterministicPerSeed(t *testing.T) {
	items, _, _ := testStream(5000, 10, 12)
	a, b := NewP3(4, 0.2, 99), NewP3(4, 0.2, 99)
	runProtocol(a, items, 4)
	runProtocol(b, items, 4)
	if a.Stats() != b.Stats() {
		t.Fatal("same seed must give identical runs")
	}
	if a.EstimateTotal() != b.EstimateTotal() {
		t.Fatal("same seed must give identical estimates")
	}
}

func TestProtocolNames(t *testing.T) {
	names := map[string]Protocol{
		"P1":    NewP1(2, 0.1),
		"P2":    NewP2(2, 0.1),
		"P3":    NewP3(2, 0.1, 1),
		"P4":    NewP4(2, 0.1, 1),
		"Exact": NewExact(2),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Fatalf("Name() = %q want %q", p.Name(), want)
		}
		if p.Name() != "Exact" && p.Eps() != 0.1 {
			t.Fatalf("%s Eps() = %v", want, p.Eps())
		}
	}
}
