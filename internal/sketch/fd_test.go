package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func randRows(rng *rand.Rand, n, d int) *matrix.Dense {
	m := matrix.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func feedFD(f *FD, a *matrix.Dense) {
	for i := 0; i < a.Rows(); i++ {
		f.Append(a.Row(i))
	}
}

func TestFDExactWhenEllAtLeastD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randRows(rng, 50, 6)
	f := NewFD(6, 6)
	feedFD(f, a)
	f.Flush() // nothing to fold in exact mode
	g := f.Gram()
	want := matrix.Gram(a)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(g.At(i, j)-want.At(i, j)) > 1e-8*(1+want.MaxAbs()) {
				t.Fatalf("ℓ=d sketch not exact at (%d,%d)", i, j)
			}
		}
	}
	if f.Deducted() != 0 {
		t.Fatalf("Deducted = %v want 0 when ℓ ≥ rank", f.Deducted())
	}
}

// Property: the FD guarantee 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ Deducted ≤ ‖A‖²_F/ℓ holds
// for random unit directions (the core invariant the paper builds on).
func TestFDGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(8)
		ell := 2 + rng.Intn(d)
		n := 20 + rng.Intn(200)
		a := randRows(rng, n, d)
		fd := NewFD(ell, d)
		feedFD(fd, a)
		fd.Flush()

		totF := frobeniusSq(a)
		if fd.Deducted() > totF/float64(ell)+1e-7*totF {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, d)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if matrix.Normalize(x) == 0 {
				continue
			}
			ax := normSqAx(a, x)
			bx := fd.Gram().Quad(x)
			diff := ax - bx
			if diff < -1e-7*(1+totF) || diff > fd.Deducted()+1e-7*(1+totF) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFDCovarianceErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randRows(rng, 300, 10)
	ell := 5
	fd := NewFD(ell, 10)
	feedFD(fd, a)
	diff := matrix.Gram(a)
	diff.SubSym(fd.Gram())
	norm, err := matrix.SpectralNormSym(diff)
	if err != nil {
		t.Fatal(err)
	}
	bound := frobeniusSq(a) / float64(ell)
	if norm > bound*(1+1e-9) {
		t.Fatalf("‖AᵀA−BᵀB‖₂ = %v exceeds ‖A‖²_F/ℓ = %v", norm, bound)
	}
	if norm < 0 {
		t.Fatal("negative norm")
	}
}

func TestFDRowsMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randRows(rng, 100, 7)
	fd := NewFD(4, 7)
	feedFD(fd, a)
	b := fd.Rows()
	if b.Rows() > 4 {
		t.Fatalf("materialized %d rows, ℓ=4", b.Rows())
	}
	// Unblocked, every row runs the compression: B never exceeds ℓ rows.
	one := NewFDBuffered(4, 7, 1)
	for i := 0; i < a.Rows(); i++ {
		one.Append(a.Row(i))
		if got := one.Size(); got > 4 {
			t.Fatalf("row %d: unblocked sketch holds %d rows, ℓ=4", i, got)
		}
	}
	// BᵀB from rows must match the factored Gram.
	g1 := matrix.Gram(b)
	g2 := fd.Gram()
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(g1.At(i, j)-g2.At(i, j)) > 1e-8*(1+g2.MaxAbs()) {
				t.Fatal("Rows() inconsistent with Gram()")
			}
		}
	}
}

// Merging two FD sketches must keep the additive error bound:
// deducted(merged) ≤ ‖A1‖²F/ℓ + ‖A2‖²F/ℓ + merge shrink ≤ (‖A1‖²F+‖A2‖²F)/ℓ·2.
func TestFDMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 4 + rng.Intn(6)
		ell := 2 + rng.Intn(d-1)
		a1 := randRows(rng, 50+rng.Intn(100), d)
		a2 := randRows(rng, 50+rng.Intn(100), d)
		f1, f2 := NewFD(ell, d), NewFD(ell, d)
		feedFD(f1, a1)
		feedFD(f2, a2)
		f1.Merge(f2)

		total := frobeniusSq(a1) + frobeniusSq(a2)
		if !almostEq(f1.Total(), total, 1e-6*(1+total)) {
			return false
		}
		if f1.Deducted() > 2*total/float64(ell)+1e-7*total {
			return false
		}
		// Directional undercount stays within Deducted.
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, d)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if matrix.Normalize(x) == 0 {
				continue
			}
			ax := normSqAx(a1, x) + normSqAx(a2, x)
			bx := f1.Gram().Quad(x)
			diff := ax - bx
			if diff < -1e-7*(1+total) || diff > f1.Deducted()+1e-7*(1+total) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFDQuadIncludesBuffer(t *testing.T) {
	fd := NewFD(4, 3)
	fd.Append([]float64{1, 0, 0}) // stays in buffer (bufCap ≥ 8)
	x := []float64{1, 0, 0}
	if got := fd.Gram().Quad(x); !almostEq(got, 1, 1e-12) {
		t.Fatalf("Quad with buffered row = %v want 1", got)
	}
	if got := fd.Total(); got != 1 {
		t.Fatalf("Total = %v want 1", got)
	}
}

func TestFDReset(t *testing.T) {
	fd := NewFD(3, 3)
	fd.Append([]float64{1, 2, 3})
	fd.Reset()
	if fd.Total() != 0 || fd.Size() != 0 || fd.Deducted() != 0 {
		t.Fatal("Reset incomplete")
	}
	if fd.Gram().Quad([]float64{1, 0, 0}) != 0 {
		t.Fatal("Quad nonzero after Reset")
	}
}

func TestFDValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid ℓ")
		}
	}()
	NewFD(0, 3)
}

func TestFDAppendWrongDim(t *testing.T) {
	fd := NewFD(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong row length")
		}
	}()
	fd.Append([]float64{1, 2})
}

func TestFDMergeWrongDim(t *testing.T) {
	a, b := NewFD(3, 3), NewFD(3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	a.Merge(b)
}

// normSqAx returns ‖Ax‖², the exact directional mass an FD bound is
// checked against.
// frobeniusSq returns ‖a‖²_F.
func frobeniusSq(a *matrix.Dense) float64 {
	var s float64
	for i := 0; i < a.Rows(); i++ {
		s += matrix.NormSq(a.Row(i))
	}
	return s
}

func normSqAx(a *matrix.Dense, x []float64) float64 {
	var s float64
	for i := 0; i < a.Rows(); i++ {
		v := matrix.Dot(a.Row(i), x)
		s += v * v
	}
	return s
}
