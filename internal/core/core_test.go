package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// lowRankRows and highRankRows memoize the synthetic datasets across tests.
func lowRankRows(n int) [][]float64 {
	cfg := gen.PAMAPLike(n)
	return gen.LowRankMatrix(cfg)
}

func highRankRows(n int) [][]float64 {
	cfg := gen.MSDLike(n)
	return gen.HighRankMatrix(cfg)
}

// covErr runs tracker t on rows and returns the paper's error metric.
func covErr(t *testing.T, tr Tracker, rows [][]float64, m int) float64 {
	t.Helper()
	exact := Run(tr, rows, stream.NewUniformRandom(m, 77))
	e, err := metrics.CovarianceError(exact, tr.Gram())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestP1Guarantee(t *testing.T) {
	const m, eps = 5, 0.2
	rows := lowRankRows(3000)
	p := NewP1(m, eps, 44)
	if got := covErr(t, p, rows, m); got > eps {
		t.Fatalf("P1 err %v exceeds ε=%v", got, eps)
	}
}

func TestP2Guarantee(t *testing.T) {
	const m, eps = 5, 0.2
	rows := lowRankRows(3000)
	p := NewP2(m, eps, 44)
	if got := covErr(t, p, rows, m); got > eps {
		t.Fatalf("P2 err %v exceeds ε=%v", got, eps)
	}
}

func TestP2OneSidedBound(t *testing.T) {
	// Theorem 4 is one-sided: 0 ≤ ‖Ax‖² − ‖Bx‖² always. Check on random
	// directions: the coordinator never overestimates.
	const m, eps = 4, 0.15
	rows := highRankRows(2000)
	p := NewP2(m, eps, 90)
	exact := Run(p, rows, stream.NewUniformRandom(m, 5))
	g := p.Gram()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		x := make([]float64, 90)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		matrix.Normalize(x)
		ax, bx := exact.Quad(x), g.Quad(x)
		if bx > ax+1e-6*(1+ax) {
			t.Fatalf("P2 overestimated direction: ‖Bx‖²=%v > ‖Ax‖²=%v", bx, ax)
		}
		if ax-bx > eps*exact.Trace()*(1+1e-9) {
			t.Fatalf("P2 direction error %v exceeds ε‖A‖²_F", ax-bx)
		}
	}
}

func TestP3Guarantee(t *testing.T) {
	const m, eps = 5, 0.25
	rows := lowRankRows(4000)
	p := NewP3(m, eps, 44, 3)
	// Randomized guarantee: fixed seed, slack 1.5ε.
	if got := covErr(t, p, rows, m); got > 1.5*eps {
		t.Fatalf("P3 err %v exceeds 1.5ε=%v", got, 1.5*eps)
	}
}

func TestP3WRGuarantee(t *testing.T) {
	const m, eps = 5, 0.3
	rows := lowRankRows(3000)
	p := NewP3WR(m, eps, 44, 4)
	if got := covErr(t, p, rows, m); got > 2*eps {
		t.Fatalf("P3wr err %v exceeds 2ε=%v", got, 2*eps)
	}
}

func TestP3BeatsP3WR(t *testing.T) {
	// Table 1's qualitative finding: without-replacement sampling dominates
	// with-replacement in communication at equal sample size.
	const m, eps = 5, 0.25
	rows := lowRankRows(4000)
	p3 := NewP3(m, eps, 44, 5)
	p3wr := NewP3WR(m, eps, 44, 5)
	Run(p3, rows, stream.NewUniformRandom(m, 6))
	Run(p3wr, rows, stream.NewUniformRandom(m, 6))
	if p3.Stats().Total() >= p3wr.Stats().Total() {
		t.Fatalf("P3 msgs %d not below P3wr msgs %d", p3.Stats().Total(), p3wr.Stats().Total())
	}
}

func TestP2MessageBound(t *testing.T) {
	// Theorem 4: O((m/ε)·log(βN)) messages; generous constant 16 (the
	// implementation ships at ε/2m, doubling the count at most).
	const m, eps = 5, 0.1
	rows := lowRankRows(5000)
	p := NewP2(m, eps, 44)
	Run(p, rows, stream.NewUniformRandom(m, 8))
	var fro float64
	for _, r := range rows {
		fro += matrix.NormSq(r)
	}
	bound := 16 * float64(m) / eps * math.Log2(1000*fro)
	if got := float64(p.Stats().Total()); got > bound {
		t.Fatalf("P2 sent %v messages, bound %v", got, bound)
	}
}

func TestCommunicationOrdering(t *testing.T) {
	// Section 6.2: P1 sends as much as (or more than) the naive baseline;
	// P2 and P3 save orders of magnitude.
	const m, eps = 5, 0.1
	rows := lowRankRows(6000)
	n := int64(len(rows))

	p1 := NewP1(m, eps, 44)
	p2 := NewP2(m, eps, 44)
	p3 := NewP3(m, eps, 44, 9)
	Run(p1, rows, stream.NewUniformRandom(m, 10))
	Run(p2, rows, stream.NewUniformRandom(m, 10))
	Run(p3, rows, stream.NewUniformRandom(m, 10))

	if p2.Stats().Total() >= n/4 {
		t.Fatalf("P2 sent %d messages, expected ≪ N=%d", p2.Stats().Total(), n)
	}
	if p3.Stats().Total() >= n/4 {
		t.Fatalf("P3 sent %d messages, expected ≪ N=%d", p3.Stats().Total(), n)
	}
	if p2.Stats().Total() >= p1.Stats().Total() {
		t.Fatalf("P2 (%d) should send less than P1 (%d)", p2.Stats().Total(), p1.Stats().Total())
	}
}

func TestP4FailsToTrackRotatedData(t *testing.T) {
	// The appendix's negative result: on correlated (low-rank, off-axis)
	// data P4's fixed standard basis cannot represent the covariance, so its
	// error stays large regardless of ε, while P2 at the same ε is accurate.
	const m = 5
	rows := lowRankRows(3000)
	for _, eps := range []float64{0.2, 0.05} {
		p4 := NewP4(m, eps, 44, 11)
		p2 := NewP2(m, eps, 44)
		err4 := covErr(t, p4, rows, m)
		err2 := covErr(t, p2, rows, m)
		if err4 < 2*err2 {
			t.Fatalf("ε=%v: P4 err %v unexpectedly competitive with P2 err %v", eps, err4, err2)
		}
	}
}

func TestNaiveFDBaseline(t *testing.T) {
	const m = 5
	rows := lowRankRows(3000)
	fd := NewNaiveFD(m, EllForEps(0.1), 44)
	got := covErr(t, fd, rows, m)
	if got > 0.1 {
		t.Fatalf("FD err %v exceeds 1/ℓ bound", got)
	}
	if fd.Stats().UpMsgs != int64(len(rows)) {
		t.Fatalf("naive FD must forward every row: %d vs %d", fd.Stats().UpMsgs, len(rows))
	}
}

func TestNaiveSVDExact(t *testing.T) {
	const m = 3
	rows := lowRankRows(1000)
	sv := NewNaiveSVD(m, 44)
	got := covErr(t, sv, rows, m)
	if got > 1e-10 {
		t.Fatalf("exact baseline err %v", got)
	}
}

func TestFrobeniusEstimates(t *testing.T) {
	const m, eps = 4, 0.1
	rows := lowRankRows(2000)
	var fro float64
	for _, r := range rows {
		fro += matrix.NormSq(r)
	}
	for _, tr := range []Tracker{
		NewP1(m, eps, 44), NewP2(m, eps, 44),
		NewP3(m, eps, 44, 12), NewNaiveFD(m, 10, 44), NewNaiveSVD(m, 44),
	} {
		Run(tr, rows, stream.NewUniformRandom(m, 13))
		got := tr.EstimateFrobenius()
		if math.Abs(got-fro) > 0.5*fro {
			t.Fatalf("%s Frobenius estimate %v far from %v", tr.Name(), got, fro)
		}
	}
}

func TestErrDecreasesWithEps(t *testing.T) {
	// Figures 2(a)/3(a): smaller ε gives smaller (or equal) measured error.
	const m = 4
	rows := highRankRows(3000)
	errBig := covErr(t, NewP2(m, 0.5, 90), rows, m)
	errSmall := covErr(t, NewP2(m, 0.05, 90), rows, m)
	if errSmall > errBig+1e-9 {
		t.Fatalf("P2 err at ε=0.05 (%v) exceeds err at ε=0.5 (%v)", errSmall, errBig)
	}
}

func TestMsgGrowsWithSites(t *testing.T) {
	// Figures 2(c)/3(c): P2's messages grow roughly linearly with m.
	rows := lowRankRows(4000)
	p5 := NewP2(5, 0.1, 44)
	p20 := NewP2(20, 0.1, 44)
	Run(p5, rows, stream.NewUniformRandom(5, 14))
	Run(p20, rows, stream.NewUniformRandom(20, 14))
	if p20.Stats().Total() <= p5.Stats().Total() {
		t.Fatalf("P2 msgs at m=20 (%d) not above m=5 (%d)", p20.Stats().Total(), p5.Stats().Total())
	}
}

func TestDirectionalErrorHelper(t *testing.T) {
	g := matrix.NewSym(2)
	g.AddOuter(1, []float64{1, 0})
	h := matrix.NewSym(2)
	xs := [][]float64{{1, 0}, {0, 1}}
	if got := DirectionalError(g, h, xs); got != 1 {
		t.Fatalf("DirectionalError = %v want 1", got)
	}
}

func TestValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewP1(0, 0.1, 4) },
		func() { NewP2(2, 0, 4) },
		func() { NewP3(2, 0.1, 0, 1) },
		func() { NewP4(2, 2, 4, 1) },
		func() { NewP2(2, 0.1, 4).ProcessRows(2, [][]float64{make([]float64, 4)}) },
		func() { NewP2(2, 0.1, 4).ProcessRows(0, [][]float64{make([]float64, 3)}) },
		func() { EllForEps(0) },
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

func TestTrackerNames(t *testing.T) {
	names := map[string]Tracker{
		"P1":   NewP1(2, 0.1, 4),
		"P2":   NewP2(2, 0.1, 4),
		"P3":   NewP3(2, 0.1, 4, 1),
		"P3wr": NewP3WR(2, 0.1, 4, 1),
		"P4":   NewP4(2, 0.1, 4, 1),
		"FD":   NewNaiveFD(2, 10, 4),
		"SVD":  NewNaiveSVD(2, 4),
	}
	for want, tr := range names {
		if tr.Name() != want {
			t.Fatalf("Name() = %q want %q", tr.Name(), want)
		}
		if tr.Dim() != 4 {
			t.Fatalf("%s Dim() = %d", want, tr.Dim())
		}
	}
}

func TestP3DeterministicPerSeed(t *testing.T) {
	rows := lowRankRows(1500)
	a := NewP3(3, 0.3, 44, 42)
	b := NewP3(3, 0.3, 44, 42)
	Run(a, rows, stream.NewUniformRandom(3, 15))
	Run(b, rows, stream.NewUniformRandom(3, 15))
	if a.Stats() != b.Stats() {
		t.Fatal("same seed must give identical runs")
	}
}

// DirectionalError returns max over the sampled unit directions xs of
// |‖Ax‖² − ‖Bx‖²| / ‖A‖²_F given the two Grams. The exact metric maximizes
// over all x (the spectral norm, see metrics.CovarianceError); this sampled
// variant is a cheap lower bound.
func DirectionalError(gramA, gramB *matrix.Sym, xs [][]float64) float64 {
	fro := gramA.Trace()
	worst := 0.0
	for _, x := range xs {
		diff := gramA.Quad(x) - gramB.Quad(x)
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
	}
	return worst / fro
}

// EllForEps returns the FD sketch size achieving deterministic error ε:
// ℓ = ⌈1/ε⌉ (the Gram-shrink variant's 1/(ℓ+1) bound).
func EllForEps(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic("core: need 0 < ε < 1")
	}
	return int(math.Ceil(1 / eps))
}
