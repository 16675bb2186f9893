package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stream"
)

func TestP2SmallSpaceGuarantee(t *testing.T) {
	const m, eps = 4, 0.2
	rows := lowRankRows(3000)
	p := NewP2SmallSpace(m, eps, 44)
	if got := covErr(t, p, rows, m); got > eps {
		t.Fatalf("P2small err %v exceeds ε=%v", got, eps)
	}
}

func TestP2SmallSpaceMatchesP2Closely(t *testing.T) {
	// With ℓ = 4m/ε ≥ d the sketches run exactly, so the variant should
	// track plain P2's error within the ship-threshold difference and send
	// at most ~2× the messages.
	const m, eps = 4, 0.1
	rows := lowRankRows(4000)
	small := NewP2SmallSpace(m, eps, 44)
	plain := NewP2(m, eps, 44)
	exact := Run(small, rows, stream.NewUniformRandom(m, 21))
	Run(plain, rows, stream.NewUniformRandom(m, 21))

	eSmall, err := metrics.CovarianceError(exact, small.Gram())
	if err != nil {
		t.Fatal(err)
	}
	ePlain, err := metrics.CovarianceError(exact, plain.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if eSmall > eps || ePlain > eps {
		t.Fatalf("errors exceed ε: small=%v plain=%v", eSmall, ePlain)
	}
	if small.Stats().Total() > 3*plain.Stats().Total() {
		t.Fatalf("P2small messages %d ≫ P2's %d", small.Stats().Total(), plain.Stats().Total())
	}
}

func TestP2SmallSpaceOnHighRank(t *testing.T) {
	const m, eps = 4, 0.25
	rows := highRankRows(2000)
	p := NewP2SmallSpace(m, eps, 90)
	if got := covErr(t, p, rows, m); got > eps {
		t.Fatalf("P2small err %v exceeds ε=%v on high-rank data", got, eps)
	}
}

// TestP2SmallSpaceHeapBelowP2 holds §5.2's reason for the variant: a site
// keeps two FD sketches of ℓ rows, not a d×d Gram. At m = 2, ε = 0.5
// (ℓ = 16) and d = 512, over 600 rows in 50-row blocks in fast mode,
// P2SmallSpace's heap grows less than P2's; with d×d state in each sketch
// it grew 2.8× as much.
func TestP2SmallSpaceHeapBelowP2(t *testing.T) {
	const m, eps, d = 2, 0.5, 512
	rng := rand.New(rand.NewSource(12))
	rows := make([][]float64, 600)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	growth := func(build func() Tracker) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := build()
		for i := 0; i < len(rows); i += 50 {
			tr.ProcessRows(i/50%m, rows[i:i+50])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		runtime.KeepAlive(rows)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	small := growth(func() Tracker { return NewP2SmallSpaceFast(m, eps, d) })
	plain := growth(func() Tracker { return NewP2Fast(m, eps, d) })
	t.Logf("heap growth: P2SmallSpace %.1f MB, P2 %.1f MB", float64(small)/1e6, float64(plain)/1e6)
	if small >= plain {
		t.Fatalf("P2SmallSpace grew %.1f MB, P2 %.1f MB: want less", float64(small)/1e6, float64(plain)/1e6)
	}
}

func TestP2SmallSpaceSketchSizing(t *testing.T) {
	p := NewP2SmallSpace(5, 0.1, 44)
	if got := p.sites[0].b.(*fdPair).recv.Snapshot().Ell; got != 200 {
		t.Fatalf("ℓ = %d want 4m/ε = 200", got)
	}
	if p.Name() != "P2small" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestP2SmallSpaceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewP2SmallSpace(0, 0.1, 4)
}
