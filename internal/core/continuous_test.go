package core

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// The defining property of the tracking problem (Definition 1) is that the
// guarantee holds at EVERY time instance, not just at the end of the
// stream. These tests replay a stream and probe the coordinator at many
// intermediate instants, mirroring the paper's observation in Section 6
// that "approximation errors ... are very stable with respect to query
// time".

// checkContinuous feeds rows one at a time and verifies the error bound at
// every checkpoint.
func checkContinuous(t *testing.T, tr Tracker, rows [][]float64, m int, slack float64, every int) {
	t.Helper()
	asg := stream.NewUniformRandom(m, 99)
	exact := matrix.NewSym(tr.Dim())
	for i, row := range rows {
		exact.AddOuter(1, row)
		tr.ProcessRows(asg.Next(), rows[i:i+1])
		if (i+1)%every != 0 {
			continue
		}
		e, err := metrics.CovarianceError(exact, tr.Gram())
		if err != nil {
			t.Fatal(err)
		}
		if e > slack {
			t.Fatalf("%s: error %v exceeds %v at time instant %d", tr.Name(), e, slack, i+1)
		}
	}
}

func TestP2ContinuousGuarantee(t *testing.T) {
	const m, eps = 4, 0.2
	rows := lowRankRows(2500)
	checkContinuous(t, NewP2(m, eps, 44), rows, m, eps, 100)
}

func TestP1ContinuousGuarantee(t *testing.T) {
	const m, eps = 4, 0.2
	rows := lowRankRows(2000)
	checkContinuous(t, NewP1(m, eps, 44), rows, m, eps, 200)
}

func TestP3ContinuousGuarantee(t *testing.T) {
	const m, eps = 4, 0.25
	rows := lowRankRows(2500)
	// Randomized: the theorem holds with probability 1−1/s per instant;
	// allow slack 2ε across the fixed-seed run.
	checkContinuous(t, NewP3(m, eps, 44, 17), rows, m, 2*eps, 250)
}

func TestP2ContinuousOnHighRank(t *testing.T) {
	const m, eps = 4, 0.25
	rows := highRankRows(1500)
	checkContinuous(t, NewP2(m, eps, 90), rows, m, eps, 150)
}

// TestContinuousMessageMonotone verifies the accounting is monotone in
// time: replaying a prefix can never cost more than the full stream.
func TestContinuousMessageMonotone(t *testing.T) {
	const m, eps = 4, 0.2
	rows := lowRankRows(1500)
	tr := NewP2(m, eps, 44)
	asg := stream.NewUniformRandom(m, 98)
	var prev int64
	for i := range rows {
		tr.ProcessRows(asg.Next(), rows[i:i+1])
		cur := tr.Stats().Total()
		if cur < prev {
			t.Fatalf("message count decreased at row %d: %d → %d", i, prev, cur)
		}
		prev = cur
	}
}
