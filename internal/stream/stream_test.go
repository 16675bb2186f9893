package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccountantCounts(t *testing.T) {
	a := NewAccountant(5)
	a.SendUp(3)
	a.SendUp(1)
	a.Broadcast(2)
	s := a.Stats()
	if s.UpMsgs != 2 || s.UpUnits != 4 {
		t.Fatalf("up: %+v", s)
	}
	if s.Broadcasts != 1 || s.DownMsgs != 5 || s.DownUnits != 10 {
		t.Fatalf("down: %+v", s)
	}
	if s.Total() != 7 {
		t.Fatalf("Total = %d want 7", s.Total())
	}
}

func TestAccountantSendUpN(t *testing.T) {
	a := NewAccountant(2)
	a.SendUpN(7, 3)
	s := a.Stats()
	if s.UpMsgs != 7 || s.UpUnits != 21 {
		t.Fatalf("%+v", s)
	}
}

func TestAccountantReset(t *testing.T) {
	a := NewAccountant(2)
	a.SendUp(1)
	a.Reset()
	if a.Stats() != (Stats{}) {
		t.Fatal("Reset incomplete")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{UpMsgs: 1, DownMsgs: 2, Broadcasts: 1, UpUnits: 3, DownUnits: 4}
	b := a
	a.Add(b)
	if a.UpMsgs != 2 || a.DownUnits != 8 {
		t.Fatalf("%+v", a)
	}
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Fatal("empty String")
	}
	// The report must carry the per-direction unit split, not just the sum.
	s := Stats{UpMsgs: 2, DownMsgs: 3, Broadcasts: 1, UpUnits: 7, DownUnits: 5}
	got := s.String()
	want := "up=2 down=3 (broadcasts=1) units=12 (up=7 down=5)"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	r := NewRoundRobin(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Fatalf("Next()[%d] = %d want %d", i, got, w)
		}
	}
	if r.Sites() != 3 {
		t.Fatal("Sites wrong")
	}
}

// Property: UniformRandom stays in range and is deterministic per seed.
func TestUniformRandomProperties(t *testing.T) {
	f := func(seed int64) bool {
		u1 := NewUniformRandom(7, seed)
		u2 := NewUniformRandom(7, seed)
		for i := 0; i < 100; i++ {
			a, b := u1.Next(), u2.Next()
			if a != b || a < 0 || a >= 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRandomRoughlyBalanced(t *testing.T) {
	u := NewUniformRandom(4, 99)
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[u.Next()]++
	}
	for s, c := range counts {
		if c < n/4-n/20 || c > n/4+n/20 {
			t.Fatalf("site %d got %d of %d", s, c, n)
		}
	}
}

func TestConstructorsValidate(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAccountant(0) },
		func() { NewRoundRobin(0) },
		func() { NewUniformRandom(0, 1) },
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

func TestAccountant(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewAccountant(0) did not panic")
			}
		}()
		NewAccountant(0)
	}()
	if err := CheckSites(-3); err == nil {
		t.Fatal("expected error for m = -3")
	}
	a := NewAccountant(2)
	a.SendUp(3)
	a.Broadcast(1)
	want := Stats{UpMsgs: 1, UpUnits: 3, Broadcasts: 1, DownMsgs: 2, DownUnits: 2}
	if a.Stats() != want {
		t.Fatalf("stats %v, want %v", a.Stats(), want)
	}
	b := NewAccountant(2)
	b.RestoreStats(a.Stats())
	if b.Stats() != want {
		t.Fatalf("restored stats %v, want %v", b.Stats(), want)
	}
}

// TestAccountantConcurrentStats reads Stats while senders record; run
// under -race this is the safe-scrape contract the service /metrics
// endpoint relies on.
func TestAccountantConcurrentStats(t *testing.T) {
	a := NewAccountant(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			a.SendUp(1)
			if i%100 == 0 {
				a.Broadcast(1)
			}
		}
	}()
	for {
		s := a.Stats()
		if s.DownMsgs > s.Broadcasts*4 {
			t.Fatalf("torn read: %v", s)
		}
		select {
		case <-done:
			if got := a.Stats(); got.UpMsgs != 10_000 || got.Broadcasts != 100 {
				t.Fatalf("final stats %v", got)
			}
			return
		default:
		}
	}
}

func TestWeightTracker(t *testing.T) {
	const m = 8
	acct := NewAccountant(m)
	tr := NewWeightTracker(m, 0.5, acct)
	asg := NewUniformRandom(m, 3)
	var w float64
	for i := 0; i < 20000; i++ {
		wi := 1 + float64(i%17)
		w += wi
		tr.Observe(asg.Next(), wi)
		// Invariant: Ŵ ≤ W ≤ (1+2θ)Ŵ = 2Ŵ for the broadcast estimate.
		if tr.Estimate() > w+1e-9 {
			t.Fatalf("Ŵ=%v exceeds W=%v at step %d", tr.Estimate(), w, i)
		}
		if w > 2*tr.Estimate()*(1+1e-9)+2*float64(m) {
			t.Fatalf("W=%v exceeds 2Ŵ=%v at step %d", w, 2*tr.Estimate(), i)
		}
	}
	if acct.Stats().Total() == 0 {
		t.Fatal("tracker never communicated")
	}
	// Message count O((m/θ)·log W).
	bound := 16 * float64(m) / 0.5 * math.Log2(w)
	if got := float64(acct.Stats().Total()); got > bound {
		t.Fatalf("tracker sent %v messages, bound %v", got, bound)
	}
	for _, theta := range []float64{0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("θ = %v: expected panic", theta)
				}
			}()
			NewWeightTracker(2, theta, NewAccountant(2))
		}()
	}
}
