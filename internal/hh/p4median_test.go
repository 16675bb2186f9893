package hh

import (
	"math"
	"testing"
)

func TestP4MedianGuarantee(t *testing.T) {
	const m, eps = 9, 0.1
	items, exact, w := testStream(30000, 20, 41)
	p := NewP4Median(m, eps, 5, 42)
	runProtocol(p, items, m)
	// Amplified: the εW bound should now hold with slack 1.5ε even though a
	// single copy only achieves it with probability 3/4.
	checkFrequencyGuarantee(t, p, exact, w, 1.5*eps)
}

func TestP4MedianBeatsSingleCopyWorstCase(t *testing.T) {
	// Across elements, the median's worst-case error should not exceed the
	// worst single copy's (it is a selection among them per element).
	const m, eps = 9, 0.1
	items, exact, w := testStream(30000, 20, 43)
	med := NewP4Median(m, eps, 5, 44)
	runProtocol(med, items, m)

	worstMed := 0.0
	for e, fe := range exact {
		if err := math.Abs(med.Estimate(e) - fe); err > worstMed {
			worstMed = err
		}
	}
	worstCopies := 0.0
	for _, c := range med.copies {
		worst := 0.0
		for e, fe := range exact {
			if err := math.Abs(c.Estimate(e) - fe); err > worst {
				worst = err
			}
		}
		if worst > worstCopies {
			worstCopies = worst
		}
	}
	if worstMed > worstCopies+1e-9 {
		t.Fatalf("median worst error %v exceeds worst copy %v", worstMed, worstCopies)
	}
	_ = w
}

func TestP4MedianStatsSumCopies(t *testing.T) {
	const m, eps = 4, 0.2
	items, _, _ := testStream(5000, 10, 45)
	p := NewP4Median(m, eps, 3, 46)
	runProtocol(p, items, m)
	var sum int64
	for _, c := range p.copies {
		sum += c.Stats().Total()
	}
	if p.Stats().Total() != sum {
		t.Fatalf("Stats %d != sum of copies %d", p.Stats().Total(), sum)
	}
	if len(p.copies) != 3 || p.Name() != "P4med" || p.Eps() != eps {
		t.Fatal("accessors wrong")
	}
}

func TestP4MedianEvenCopies(t *testing.T) {
	p := NewP4Median(2, 0.2, 2, 47)
	p.Process(0, 5, 10)
	p.Process(1, 5, 10)
	// With two copies the median is the mean of both estimates; it must be
	// finite and nonnegative.
	if est := p.Estimate(5); est < 0 || math.IsNaN(est) {
		t.Fatalf("even-copy median broken: %v", est)
	}
}

func TestP4MedianCandidatesDeduped(t *testing.T) {
	const m = 4
	items, _, _ := testStream(5000, 10, 48)
	p := NewP4Median(m, 0.2, 3, 49)
	runProtocol(p, items, m)
	seen := make(map[uint64]bool)
	for _, c := range p.Candidates(math.Inf(-1)) {
		if seen[c.Elem] {
			t.Fatalf("duplicate candidate %d", c.Elem)
		}
		seen[c.Elem] = true
	}
}

func TestP4MedianValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewP4Median(2, 0.2, 0, 1)
}
