package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/perfguard"
)

// Property-test harness for the blocked Frequent Directions fast path: over
// random (ℓ, d, n) configurations it checks, for BOTH ingest paths —
// row-at-a-time Append and blocked AppendRows with arbitrary batch splits —
// that the paper's covariance-error and projection-error bounds hold, and
// that the two paths produce sketches with identical Gram spectra and
// identical shrink counts (they are bit-identical by construction; the
// harness pins that down as a contract).

// splitRows cuts rows into random-length batches (possibly empty).
func splitRows(rng *rand.Rand, rows [][]float64) [][][]float64 {
	var out [][][]float64
	for start := 0; start < len(rows); {
		take := rng.Intn(len(rows) - start + 1) // 0 .. remaining
		if take == 0 && rng.Intn(4) > 0 {
			take = 1
		}
		out = append(out, rows[start:start+take])
		start += take
	}
	return out
}

func denseRows(a *matrix.Dense) [][]float64 {
	out := make([][]float64, a.Rows())
	for i := range out {
		out[i] = a.Row(i)
	}
	return out
}

func TestFDBlockedPropertyHarness(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(12)
		ell := 1 + rng.Intn(d+3) // covers both sketch (ℓ<d) and exact (ℓ≥d) regimes
		n := 1 + rng.Intn(300)
		a := randRows(rng, n, d)
		rows := denseRows(a)

		rowPath := NewFD(ell, d)
		for _, row := range rows {
			rowPath.Append(row)
		}
		blocked := NewFD(ell, d)
		for _, batch := range splitRows(rng, rows) {
			blocked.AppendRows(batch)
		}
		rowPath.Flush()
		blocked.Flush()

		// Identical shrink counts: the two paths share one compression
		// schedule.
		if rowPath.shrinks != blocked.shrinks {
			t.Fatalf("trial %d (ℓ=%d d=%d n=%d): shrinks %d (row) vs %d (blocked)",
				trial, ell, d, n, rowPath.shrinks, blocked.shrinks)
		}
		if rowPath.Deducted() != blocked.Deducted() {
			t.Fatalf("trial %d: deducted %v vs %v", trial, rowPath.Deducted(), blocked.Deducted())
		}

		// Identical Gram spectra within 1e-9 (relative to the stream mass).
		scale := 1 + frobeniusSq(a)
		sr := spectrumOf(t, rowPath)
		sb := spectrumOf(t, blocked)
		if len(sr) != len(sb) {
			t.Fatalf("trial %d: spectrum sizes %d vs %d", trial, len(sr), len(sb))
		}
		for i := range sr {
			if math.Abs(sr[i]-sb[i]) > 1e-9*scale {
				t.Fatalf("trial %d: spectra diverge at %d: %v vs %v", trial, i, sr[i], sb[i])
			}
		}

		for name, fd := range map[string]*FD{"row": rowPath, "blocked": blocked} {
			checkCovarianceBound(t, trial, name, a, fd)
			checkProjectionBound(t, trial, name, a, fd)
		}
	}
}

// TestFDGuaranteeBothGramSides runs the guarantee checks on shapes either
// side of the compression's choice of Gram: P1's ℓ = 21 at d = 44, where
// M = [B; buffer] has more rows than columns and MᵀM is decomposed, and
// ℓ = 16 at d = 128 and 512, where the m×m MMᵀ is. Row-at-a-time and
// blocked ingest are checked, and so is Merge: of two sketches of the
// shape (at d = 44 the merge's 126 rows decompose MᵀM, above it MMᵀ), and
// at d = 44 of an exact sketch into one that shrinks and back.
func TestFDGuaranteeBothGramSides(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for trial, c := range []struct{ ell, d int }{{21, 44}, {16, 128}, {16, 512}} {
		if testing.Short() && c.d > 128 {
			continue
		}
		a1, a2 := randRows(rng, 150, c.d), randRows(rng, 110, c.d)
		rowPath, blocked, other := NewFD(c.ell, c.d), NewFD(c.ell, c.d), NewFD(c.ell, c.d)
		feedFD(rowPath, a1)
		for _, batch := range splitRows(rng, denseRows(a1)) {
			blocked.AppendRows(batch)
		}
		feedFD(other, a2)
		for name, fd := range map[string]*FD{"row": rowPath, "blocked": blocked} {
			checkCovarianceBound(t, trial, name, a1, fd)
			checkProjectionBound(t, trial, name, a1, fd)
		}

		both := matrix.NewDense(0, c.d)
		for _, a := range []*matrix.Dense{a1, a2} {
			for i := 0; i < a.Rows(); i++ {
				both.AppendRow(a.Row(i))
			}
		}
		blocked.Merge(other)
		checkCovarianceBound(t, trial, "merge", both, blocked)
		if c.d == 44 {
			exact1, exact2 := NewFD(c.d, c.d), NewFD(c.d, c.d)
			feedFD(exact1, a1)
			feedFD(exact2, a2)
			rowPath.Merge(exact2)
			checkCovarianceBound(t, trial, "merge exact into sketch", both, rowPath)
			exact1.Merge(other)
			checkCovarianceBound(t, trial, "merge sketch into exact", both, exact1)
		}
	}
}

// spectrumOf returns the descending eigenvalues of the sketch's Gram.
func spectrumOf(t *testing.T, fd *FD) []float64 {
	t.Helper()
	vals, _, err := matrix.EigSym(fd.Gram())
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// checkCovarianceBound asserts the paper's covariance guarantee:
// ‖AᵀA − BᵀB‖₂ ≤ Deducted ≤ ‖A‖²_F/(ℓ+1).
func checkCovarianceBound(t *testing.T, trial int, path string, a *matrix.Dense, fd *FD) {
	t.Helper()
	totF := frobeniusSq(a)
	tol := 1e-7 * (1 + totF)
	if fd.Deducted() > totF/float64(fd.ell+1)+tol {
		t.Fatalf("trial %d (%s): deducted %v exceeds ‖A‖²_F/(ℓ+1) = %v",
			trial, path, fd.Deducted(), totF/float64(fd.ell+1))
	}
	diff := matrix.Gram(a)
	diff.SubSym(fd.Gram())
	norm, err := matrix.SpectralNormSym(diff)
	if err != nil {
		t.Fatal(err)
	}
	if norm > fd.Deducted()+tol {
		t.Fatalf("trial %d (%s): ‖AᵀA−BᵀB‖₂ = %v exceeds Deducted = %v",
			trial, path, norm, fd.Deducted())
	}
}

// checkProjectionBound asserts the FD projection guarantee: projecting A
// onto the top-k directions of the sketch loses at most the optimal rank-k
// residual plus k·Deducted:
//
//	‖A − π_{B,k}(A)‖²_F ≤ ‖A − A_k‖²_F + k·Deducted.
func checkProjectionBound(t *testing.T, trial int, path string, a *matrix.Dense, fd *FD) {
	t.Helper()
	vals, vecs, err := matrix.EigSym(fd.Gram())
	if err != nil {
		t.Fatal(err)
	}
	exactVals, _, err := matrix.EigSym(matrix.Gram(a))
	if err != nil {
		t.Fatal(err)
	}
	totF := frobeniusSq(a)
	tol := 1e-7 * (1 + totF)
	for _, k := range []int{1, 2} {
		if k > len(vals) || k >= fd.ell+1 {
			continue
		}
		// ‖A − π_{B,k}(A)‖²_F = ‖A‖²_F − ‖A·V_k‖²_F.
		var captured float64
		for i := 0; i < a.Rows(); i++ {
			for c := 0; c < k; c++ {
				var dot float64
				for j, v := range a.Row(i) {
					dot += v * vecs.At(j, c)
				}
				captured += dot * dot
			}
		}
		projErr := totF - captured
		// ‖A − A_k‖²_F = Σ_{i>k} λ_i(AᵀA).
		var optErr float64
		for i := k; i < len(exactVals); i++ {
			if exactVals[i] > 0 {
				optErr += exactVals[i]
			}
		}
		if projErr > optErr+float64(k)*fd.Deducted()+tol {
			t.Fatalf("trial %d (%s, k=%d): projection error %v exceeds ‖A−A_k‖²_F + k·Δ = %v",
				trial, path, k, projErr, optErr+float64(k)*fd.Deducted())
		}
	}
}

// TestBlockedFDSpeedupGuard is the in-tree benchmark guard for the
// acceptance bar: blocked ingest (default 2ℓ buffer, AppendRows) must beat
// the unblocked row-at-a-time baseline (block 1: one compression per row
// once the sketch saturates) by at least 3× rows/sec, each lap building
// its sketch. Since a compression decomposes the small MMᵀ (36×36 here,
// 13×13 unblocked) the ratio reads 3.4–4.3×, set by the eigensolver's
// per-call cost at small n; the go test -bench suite (BenchmarkFDIngest)
// reports the exact ratio. A reading under the floor is taken again,
// twice at most: a busy spell of a shared host can cover one reading, a
// real loss covers all three.
func TestBlockedFDSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const d, ell, n = 48, 12, 1500
	rng := rand.New(rand.NewSource(9))
	rows := denseRows(randRows(rng, n, d))
	perfguard.Hold(t, perfguard.Row{Name: "FD ingest",
		Ref: perfguard.Body{Name: "unblocked", Run: func() {
			unblocked := NewFDBuffered(ell, d, 1)
			for _, row := range rows {
				unblocked.Append(row)
			}
		}},
		Fast:  perfguard.Body{Name: "blocked", Run: func() { NewFD(ell, d).AppendRows(rows) }},
		Floor: 3, Laps: 7, Readings: 3})
}

// TestFDScalingGuard holds FD to its O(dℓ + ℓ²) cost a row while
// ℓ + block < d: at ℓ = 16, AppendRows' time over 1 024 rows in 64-row
// batches, on a sketch built before the lap, grows at most 3× per doubling
// of d from 128 to 512. Linear cost gives 2×, a d×d decomposition per
// block 8×; the sketch that kept BᵀB's d×d eigenvectors read 6.3× and
// 9.0×.
func TestFDScalingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const ell, n = 16, 1024
	width := func(d int) perfguard.Body {
		rows := denseRows(randRows(rand.New(rand.NewSource(int64(d))), n, d))
		var fd *FD
		return perfguard.Body{Name: fmt.Sprintf("d = %d", d), Prep: func() { fd = NewFD(ell, d) }, Run: func() {
			for i := 0; i < n; i += 64 {
				fd.AppendRows(rows[i : i+64])
			}
		}}
	}
	d128, d256, d512 := width(128), width(256), width(512)
	row := func(ref, fast perfguard.Body) perfguard.Row {
		return perfguard.Row{Name: "FD AppendRows, ≤ 3× a doubling of d", Ref: ref, Fast: fast, Floor: 1.0 / 3, Laps: 9}
	}
	perfguard.Hold(t, row(d128, d256), row(d256, d512))
}
