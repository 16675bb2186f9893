package distmat_test

import (
	"testing"

	distmat "repro"
)

// Tests for the facade exports beyond the core protocol set: the P2
// small-space variant, the P4 median amplification, windowed tracking, and
// the quantile tracker.

func TestFacadeP2SmallSpace(t *testing.T) {
	const m, eps, d = 4, 0.2, 44
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(2000))
	tr := newMatrix(t, "p2small", m, eps, d)
	exact := runMatrix(t, tr, rows, distmat.NewUniformRandom(m, 1))
	e, err := distmat.CovarianceError(exact, tr.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if e > eps {
		t.Fatalf("P2small err %v exceeds ε", e)
	}
}

func TestFacadeP4Median(t *testing.T) {
	const m, eps = 6, 0.1
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(20000))
	p := newHH(t, "p4median", m, eps, distmat.WithCopies(3), distmat.WithSeed(5))
	runHH(t, p, items, distmat.NewUniformRandom(m, 6))
	if p.EstimateTotal() <= 0 {
		t.Fatal("no total estimate")
	}
	if hh := distmat.HeavyHitters(p, 0.05); len(hh) == 0 {
		t.Fatal("no heavy hitters on a Zipf stream")
	}
}

func TestFacadeWindowedTracker(t *testing.T) {
	const m, eps, d, window = 3, 0.2, 16, 500
	w := distmat.NewWindowedTracker(window, func() distmat.MatrixTracker {
		return newMatrix(t, "p2", m, eps, d)
	})
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 2000, D: d, Beta: 50, Seed: 7})
	asg := distmat.NewRoundRobin(m)
	for _, r := range rows {
		w.ProcessRow(asg.Next(), r)
	}
	if c := w.Covered(); c < window/2 || c > window {
		t.Fatalf("covered %d outside [W/2, W]", c)
	}
	if w.Gram().Trace() <= 0 {
		t.Fatal("empty window estimate")
	}
}

func TestFacadeQuantiles(t *testing.T) {
	const m, eps, bits = 4, 0.1, 10
	tr, err := distmat.NewQuantile(distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithBits(bits))
	if err != nil {
		t.Fatal(err)
	}
	asg := distmat.NewUniformRandom(m, 8)
	// Uniform values in [0, 1024) with unit weights: the median must land
	// near 512 within εW rank error.
	for i := 0; i < 40000; i++ {
		tr.Process(asg.Next(), uint64(i)%1024, 1)
	}
	med := tr.Quantile(0.5)
	if med < 512-110 || med > 512+110 {
		t.Fatalf("median %d far from 512", med)
	}
	if tr.Stats().Total() >= 40000 {
		t.Fatal("quantile tracker sent more than naive")
	}
}
