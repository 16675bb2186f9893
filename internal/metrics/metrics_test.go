package metrics

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sketch"
)

func we(e uint64, w float64) sketch.WeightedElement {
	return sketch.WeightedElement{Elem: e, Weight: w}
}

func TestEvaluateHHPerfect(t *testing.T) {
	truth := []sketch.WeightedElement{we(1, 100), we(2, 50)}
	returned := []sketch.WeightedElement{we(1, 100), we(2, 50)}
	res := EvaluateHH(returned, truth, func(e uint64) float64 {
		if e == 1 {
			return 100
		}
		return 50
	})
	if res.Recall != 1 || res.Precision != 1 || res.AvgRelErr != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestEvaluateHHPartial(t *testing.T) {
	truth := []sketch.WeightedElement{we(1, 100), we(2, 50)}
	returned := []sketch.WeightedElement{we(1, 90), we(3, 10)} // missed 2, false positive 3
	res := EvaluateHH(returned, truth, func(e uint64) float64 {
		switch e {
		case 1:
			return 90
		case 2:
			return 40
		}
		return 10
	})
	if res.Recall != 0.5 {
		t.Fatalf("recall %v want 0.5", res.Recall)
	}
	if res.Precision != 0.5 {
		t.Fatalf("precision %v want 0.5", res.Precision)
	}
	// err = mean(|90−100|/100, |40−50|/50) = mean(0.1, 0.2) = 0.15.
	if math.Abs(res.AvgRelErr-0.15) > 1e-12 {
		t.Fatalf("err %v want 0.15", res.AvgRelErr)
	}
}

func TestEvaluateHHEmptySets(t *testing.T) {
	res := EvaluateHH(nil, nil, func(uint64) float64 { return 0 })
	if res.Recall != 1 || res.Precision != 1 || res.AvgRelErr != 0 {
		t.Fatalf("vacuous case: %+v", res)
	}
	res = EvaluateHH([]sketch.WeightedElement{we(9, 1)}, nil, func(uint64) float64 { return 0 })
	if res.Precision != 0 {
		t.Fatalf("all-false-positive precision %v want 0", res.Precision)
	}
}

func TestEvaluateHHString(t *testing.T) {
	if (HHResult{}).String() == "" {
		t.Fatal("empty String")
	}
}

func TestCovarianceErrorIdentities(t *testing.T) {
	g := matrix.NewSym(3)
	g.AddOuter(4, []float64{1, 0, 0})
	g.AddOuter(1, []float64{0, 1, 0})
	// Same matrix → 0.
	e, err := CovarianceError(g, g.Clone())
	if err != nil || e != 0 {
		t.Fatalf("e=%v err=%v", e, err)
	}
	// Empty approx → ‖G‖₂/tr(G) = 4/5.
	e, err = CovarianceError(g, matrix.NewSym(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.8) > 1e-12 {
		t.Fatalf("e = %v want 0.8", e)
	}
}

func TestCovarianceErrorEmptyMatrix(t *testing.T) {
	if _, err := CovarianceError(matrix.NewSym(2), matrix.NewSym(2)); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestRankKError(t *testing.T) {
	g := matrix.NewSym(3)
	g.AddOuter(4, []float64{1, 0, 0})
	g.AddOuter(2, []float64{0, 1, 0})
	g.AddOuter(1, []float64{0, 0, 1})
	// rank-1 residual = λ₂/tr = 2/7.
	e, err := RankKError(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2.0/7.0) > 1e-12 {
		t.Fatalf("e = %v want 2/7", e)
	}
	// k ≥ d → 0.
	e, err = RankKError(g, 5)
	if err != nil || e != 0 {
		t.Fatalf("e=%v err=%v", e, err)
	}
	// k < 0 is refused, not an index past the spectrum.
	if _, err := RankKError(g, -1); err == nil {
		t.Fatal("k = −1: want an error")
	}
}

func TestRankKErrorEmpty(t *testing.T) {
	if _, err := RankKError(matrix.NewSym(2), 1); err == nil {
		t.Fatal("expected error")
	}
}
