// Package metrics computes the evaluation measures from Section 6 of the
// paper: recall, precision and average relative error for heavy-hitter
// protocols, and the covariance error ‖AᵀA − BᵀB‖₂ / ‖A‖²_F for matrix
// tracking protocols.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/sketch"
)

// HHResult bundles the heavy-hitters quality measures for one protocol run.
type HHResult struct {
	Recall    float64 // |returned ∩ true| / |true|
	Precision float64 // |returned ∩ true| / |returned|
	AvgRelErr float64 // mean over true HHs of |Ŵ_e − f_e| / f_e
}

// EvaluateHH scores a returned heavy-hitter set against the exact one.
// estimate supplies the protocol's Ŵ_e for the relative-error measure.
// Empty truth yields recall 1; empty returned yields precision 1 (vacuous).
func EvaluateHH(returned, truth []sketch.WeightedElement, estimate func(uint64) float64) HHResult {
	trueSet := make(map[uint64]float64, len(truth))
	for _, e := range truth {
		trueSet[e.Elem] = e.Weight
	}
	retSet := make(map[uint64]bool, len(returned))
	for _, e := range returned {
		retSet[e.Elem] = true
	}

	hits := 0
	for e := range trueSet {
		if retSet[e] {
			hits++
		}
	}
	res := HHResult{Recall: 1, Precision: 1}
	if len(truth) > 0 {
		res.Recall = float64(hits) / float64(len(truth))
	}
	if len(returned) > 0 {
		res.Precision = float64(hits) / float64(len(returned))
	}

	if len(truth) > 0 {
		var sum float64
		for e, fe := range trueSet {
			sum += math.Abs(estimate(e)-fe) / fe
		}
		res.AvgRelErr = sum / float64(len(truth))
	}
	return res
}

func (r HHResult) String() string {
	return fmt.Sprintf("recall=%.3f precision=%.3f err=%.3g", r.Recall, r.Precision, r.AvgRelErr)
}

// CovarianceError returns the paper's matrix metric
//
//	err = ‖AᵀA − BᵀB‖₂ / ‖A‖²_F
//	    = max_{‖x‖=1} |‖Ax‖² − ‖Bx‖²| / ‖A‖²_F
//
// given the two Gram matrices and ‖A‖²_F (= trace of the first Gram).
func CovarianceError(gramA, gramB *matrix.Sym) (float64, error) {
	fro := gramA.Trace()
	if fro <= 0 {
		return 0, fmt.Errorf("metrics: empty matrix (‖A‖²_F = %v)", fro)
	}
	norm, err := matrix.CovarianceDiffNorm(gramA, gramB)
	if err != nil {
		return 0, err
	}
	return norm / fro, nil
}

// RankKError returns ‖AᵀA − (A_k)ᵀ(A_k)‖₂ / ‖A‖²_F, the best-possible
// rank-k error (the SVD row of Table 1): it equals σ²_{k+1} / ‖A‖²_F. A
// negative k is an error.
func RankKError(gramA *matrix.Sym, k int) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("metrics: negative rank k = %d", k)
	}
	fro := gramA.Trace()
	if fro <= 0 {
		return 0, fmt.Errorf("metrics: empty matrix")
	}
	vals, err := matrix.EigValsSym(gramA)
	if err != nil {
		return 0, err
	}
	if k >= len(vals) {
		return 0, nil
	}
	v := vals[k]
	if v < 0 {
		v = 0
	}
	return v / fro, nil
}
