package quantile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

func feedTracker(t *Tracker, items []wv, m int, seed int64) {
	asg := stream.NewUniformRandom(m, seed)
	for _, it := range items {
		t.Process(asg.Next(), it.v, it.w)
	}
}

func TestTrackerQuantileGuarantee(t *testing.T) {
	const m, eps, bits = 8, 0.1, 10
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, 30000, bits, 20)
	tr := NewTracker(m, eps, bits)
	feedTracker(tr, items, m, 2)

	w := totalW(items)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		v := tr.Quantile(phi)
		r := exactRank(items, v)
		if r < (phi-eps)*w-20 || r > (phi+eps)*w+20 {
			t.Fatalf("φ=%v: value %d has rank %v, want within εW of %v", phi, v, r, phi*w)
		}
	}
	if got := tr.EstimateTotal(); got < (1-eps)*w || got > w+1e-6 {
		t.Fatalf("total %v vs %v", got, w)
	}
}

func TestTrackerCommunicationSublinear(t *testing.T) {
	const m, eps, bits = 8, 0.1, 10
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 50000, bits, 10)
	tr := NewTracker(m, eps, bits)
	feedTracker(tr, items, m, 4)
	if tr.Stats().Total() >= int64(len(items)) {
		t.Fatalf("tracker sent %d messages for %d items", tr.Stats().Total(), len(items))
	}
	if tr.Stats().Total() == 0 {
		t.Fatal("tracker never communicated")
	}
}

func TestTrackerContinuous(t *testing.T) {
	// The guarantee must hold at intermediate instants too.
	const m, eps, bits = 4, 0.15, 8
	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, 8000, bits, 5)
	tr := NewTracker(m, eps, bits)
	asg := stream.NewUniformRandom(m, 6)
	var seen []wv
	for i, it := range items {
		tr.Process(asg.Next(), it.v, it.w)
		seen = append(seen, it)
		if (i+1)%2000 != 0 {
			continue
		}
		w := totalW(seen)
		v := tr.Quantile(0.5)
		r := exactRank(seen, v)
		if r < (0.5-eps)*w-10 || r > (0.5+eps)*w+10 {
			t.Fatalf("instant %d: median rank %v outside εW of %v", i+1, r, 0.5*w)
		}
	}
}

func TestTrackerValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTracker(0, 0.1, 8) },
		func() { NewTracker(2, 0, 8) },
		func() { NewTracker(2, 0.1, 8).Process(5, 1, 1) },
		func() { NewTracker(2, 0.1, 8).Process(0, 1, 0) },
		func() { NewTracker(2, 0.1, 8).Process(0, 3, math.NaN()) },
		func() { NewTracker(2, 0.1, 8).Process(0, 3, math.Inf(1)) },
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
	if NewTracker(2, 0.1, 8).Eps() != 0.1 {
		t.Fatal("Eps accessor wrong")
	}
}
