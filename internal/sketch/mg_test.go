package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// exactCounts replays a stream into an exact frequency map.
type weightedStream []WeightedElement

func (s weightedStream) exact() (map[uint64]float64, float64) {
	f := make(map[uint64]float64)
	var w float64
	for _, it := range s {
		f[it.Elem] += it.Weight
		w += it.Weight
	}
	return f, w
}

func randStream(rng *rand.Rand, n, universe int, beta float64) weightedStream {
	s := make(weightedStream, n)
	for i := range s {
		s[i] = WeightedElement{
			Elem:   uint64(rng.Intn(universe)),
			Weight: 1 + rng.Float64()*(beta-1),
		}
	}
	return s
}

func TestMGExactWhenSmallUniverse(t *testing.T) {
	// With more counters than distinct elements MG is exact.
	rng := rand.New(rand.NewSource(1))
	s := randStream(rng, 1000, 8, 10)
	m := NewMG(16)
	for _, it := range s {
		m.Update(it.Elem, it.Weight)
	}
	f, w := s.exact()
	if !almostEq(m.weight, w, 1e-9) {
		t.Fatalf("Weight = %v want %v", m.weight, w)
	}
	if m.deducted != 0 {
		t.Fatalf("Deducted = %v want 0", m.deducted)
	}
	for e, want := range f {
		if got := m.Estimate(e); !almostEq(got, want, 1e-9) {
			t.Fatalf("Estimate(%d) = %v want %v", e, got, want)
		}
	}
}

// Property: 0 ≤ f_e − f̂_e ≤ Deducted ≤ W/(k+1), the MG invariant.
func TestMGErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(20)
		s := randStream(rng, 200+rng.Intn(800), 5+rng.Intn(200), 1+rng.Float64()*50)
		m := NewMG(k)
		for _, it := range s {
			m.Update(it.Elem, it.Weight)
		}
		exact, w := s.exact()
		if m.deducted > w/float64(k+1)+1e-9 {
			return false
		}
		for e, fe := range exact {
			under := fe - m.Estimate(e)
			if under < -1e-9 || under > m.deducted+1e-9 {
				return false
			}
		}
		// Untracked elements must have estimate 0.
		if m.Estimate(1<<60) != 0 {
			return false
		}
		return m.Size() <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMGZeroAndNegativeWeights(t *testing.T) {
	m := NewMG(4)
	m.Update(1, 0)
	if m.weight != 0 || m.Size() != 0 {
		t.Fatal("zero-weight update must be a no-op")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative weight")
		}
	}()
	m.Update(1, -1)
}

func TestMGMergePreservesBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(15)
		s1 := randStream(rng, 100+rng.Intn(400), 5+rng.Intn(100), 20)
		s2 := randStream(rng, 100+rng.Intn(400), 5+rng.Intn(100), 20)
		m1, m2 := NewMG(k), NewMG(k)
		for _, it := range s1 {
			m1.Update(it.Elem, it.Weight)
		}
		for _, it := range s2 {
			m2.Update(it.Elem, it.Weight)
		}
		m1.Merge(m2)
		exact, w := append(append(weightedStream{}, s1...), s2...).exact()
		if m1.Size() > k {
			return false
		}
		if !almostEq(m1.weight, w, 1e-6) {
			return false
		}
		// Merged deduction stays within the union bound 2W/(k+1).
		if m1.deducted > 2*w/float64(k+1)+1e-9 {
			return false
		}
		for e, fe := range exact {
			under := fe - m1.Estimate(e)
			if under < -1e-9 || under > m1.deducted+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMGHeavyHittersSorted(t *testing.T) {
	m := NewMG(10)
	m.Update(1, 5)
	m.Update(2, 10)
	m.Update(3, 1)
	hh := m.HeavyHitters(4)
	if len(hh) != 2 || hh[0].Elem != 2 || hh[1].Elem != 1 {
		t.Fatalf("HeavyHitters = %v", hh)
	}
}

func TestMGReset(t *testing.T) {
	m := NewMG(4)
	m.Update(7, 3)
	m.Reset()
	if m.weight != 0 || m.Size() != 0 || m.Estimate(7) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestMGShrinkRemovesMin(t *testing.T) {
	m := NewMG(2)
	m.Update(1, 5)
	m.Update(2, 3)
	m.Update(3, 1) // overflow: min counter (1) subtracted from all
	if m.Size() > 2 {
		t.Fatalf("size %d exceeds k=2", m.Size())
	}
	if got := m.Estimate(1); got != 4 {
		t.Fatalf("Estimate(1) = %v want 4", got)
	}
	if got := m.Estimate(3); got != 0 {
		t.Fatalf("Estimate(3) = %v want 0", got)
	}
	if m.deducted != 1 {
		t.Fatalf("Deducted = %v want 1", m.deducted)
	}
}

func TestNewMGValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on k=0")
		}
	}()
	NewMG(0)
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
