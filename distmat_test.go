package distmat_test

import (
	"math"
	"testing"

	distmat "repro"
)

// newMatrix and newHH build a registered protocol for (m, ε[, d]) plus any
// extra options, failing the test on a configuration error.
func newMatrix(t testing.TB, proto string, m int, eps float64, d int, opts ...distmat.Option) distmat.MatrixTracker {
	t.Helper()
	tr, err := distmat.NewMatrix(proto, append([]distmat.Option{
		distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newHH(t testing.TB, proto string, m int, eps float64, opts ...distmat.Option) distmat.HHProtocol {
	t.Helper()
	p, err := distmat.NewHH(proto, append([]distmat.Option{
		distmat.WithSites(m), distmat.WithEpsilon(eps)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEndToEndMatrix exercises the public API exactly as the README's quick
// start does: build a tracker, stream rows, compare against the exact Gram.
func TestEndToEndMatrix(t *testing.T) {
	const m, eps, d = 6, 0.2, 44
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(2500))

	tr := newMatrix(t, "p2", m, eps, d)
	exact := distmat.RunMatrix(tr, rows, distmat.NewUniformRandom(m, 1))

	errVal, err := distmat.CovarianceError(exact, tr.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if errVal > eps {
		t.Fatalf("covariance error %v exceeds ε=%v", errVal, eps)
	}
	if tr.Stats().Total() == 0 || tr.Stats().Total() >= int64(len(rows)) {
		t.Fatalf("message count %d implausible for N=%d", tr.Stats().Total(), len(rows))
	}
}

func TestEndToEndHeavyHitters(t *testing.T) {
	const m, eps, phi = 6, 0.01, 0.05
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(50000))

	exact := distmat.NewHHExact(m)
	distmat.RunHH(exact, items, distmat.NewUniformRandom(m, 2))
	truth := exact.TrueHeavyHitters(phi)

	p := newHH(t, "p2", m, eps)
	distmat.RunHH(p, items, distmat.NewUniformRandom(m, 2))
	got := distmat.HeavyHitters(p, phi)

	res := distmat.EvaluateHH(got, truth, p.Estimate)
	if res.Recall < 1 {
		t.Fatalf("recall %v < 1", res.Recall)
	}
	if res.AvgRelErr > eps/phi {
		t.Fatalf("avg relative error %v too large", res.AvgRelErr)
	}
}

func TestAllMatrixConstructors(t *testing.T) {
	const m, eps, d = 3, 0.3, 10
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 400, D: d, Beta: 100, Seed: 5})
	trackers := []distmat.MatrixTracker{
		newMatrix(t, "p1", m, eps, d),
		newMatrix(t, "p2", m, eps, d),
		newMatrix(t, "p3", m, eps, d, distmat.WithSeed(3)),
		newMatrix(t, "p3wr", m, eps, d, distmat.WithSeed(4)),
		newMatrix(t, "p4", m, eps, d, distmat.WithSeed(5)),
		newMatrix(t, "fd", m, eps, d, distmat.WithRank(5)),
		newMatrix(t, "svd", m, eps, d),
	}
	for _, tr := range trackers {
		exact := distmat.RunMatrix(tr, rows, distmat.NewRoundRobin(m))
		if g := tr.Gram(); g.Dim() != d {
			t.Fatalf("%s Gram dim %d", tr.Name(), g.Dim())
		}
		if exact.Trace() <= 0 {
			t.Fatal("exact Gram empty")
		}
	}
}

func TestAllHHConstructors(t *testing.T) {
	const m, eps = 3, 0.1
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(2000))
	protos := []distmat.HHProtocol{
		newHH(t, "p1", m, eps),
		newHH(t, "p2", m, eps),
		newHH(t, "p3", m, eps, distmat.WithSeed(6)),
		newHH(t, "p4", m, eps, distmat.WithSeed(7)),
	}
	for _, p := range protos {
		distmat.RunHH(p, items, distmat.NewRoundRobin(m))
		if p.EstimateTotal() <= 0 {
			t.Fatalf("%s total estimate %v", p.Name(), p.EstimateTotal())
		}
	}
}

func TestStandaloneSketches(t *testing.T) {
	fd := distmat.NewFrequentDirections(5, 8)
	mg := distmat.NewMisraGries(4)
	ss := distmat.NewSpaceSaving(4)
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 100, D: 8, Beta: 50, Seed: 9})
	for i, r := range rows {
		fd.Append(r)
		mg.Update(uint64(i%10), 1+float64(i%3))
		ss.Update(uint64(i%10), 1+float64(i%3))
	}
	if fd.Total() <= 0 || fd.Deducted() < 0 {
		t.Fatal("FD accounting broken")
	}
	if mg.Weight() != ss.Weight() {
		t.Fatalf("MG weight %v != SS weight %v", mg.Weight(), ss.Weight())
	}
	if mg.Estimate(1) > ss.Estimate(1) {
		t.Fatal("MG (under)estimate exceeds SpaceSaving (over)estimate")
	}
}

func TestRankKError(t *testing.T) {
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(1500))
	sv := newMatrix(t, "svd", 2, 0.1, 44)
	distmat.RunMatrix(sv, rows, distmat.NewRoundRobin(2))
	e, err := distmat.RankKError(sv.Gram(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-3 || math.IsNaN(e) {
		t.Fatalf("rank-30 error %v on low-rank data", e)
	}
}
