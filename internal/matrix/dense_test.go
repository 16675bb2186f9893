package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randSym(rng *rand.Rand, n int) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

// FromRows builds a matrix whose rows are copies of the given slices.
// All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row %d has %d entries, want %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Rows(), m.Cols(); r != 3 || c != 4 {
		t.Fatalf("shape = %d×%d want 3×4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v want 42.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 43 {
		t.Fatalf("after Add, At(1,2) = %v want 43", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range At")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %d×%d want 3×2", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v want 6", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestAppendRow(t *testing.T) {
	var m Dense
	m.AppendRow([]float64{1, 2, 3})
	m.AppendRow([]float64{4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %d×%d want 2×3", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 4 {
		t.Fatalf("At(1,0) = %v want 4", m.At(1, 0))
	}
}

func TestAppendRowCopies(t *testing.T) {
	var m Dense
	row := []float64{1, 2}
	m.AppendRow(row)
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("AppendRow must copy its argument")
	}
}

func TestRowAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Fatal("Row must alias matrix storage")
	}
	rc := m.RowCopy(0)
	rc[0] = -1
	if m.At(0, 0) != 1 {
		t.Fatal("RowCopy must not alias matrix storage")
	}
}

// Property: Frobenius norm is invariant under transpose and additive over
// squared row norms.
func TestFrobeniusProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randDense(r, 1+r.Intn(8), 1+r.Intn(8))
		at := NewDense(a.Cols(), a.Rows())
		transposeInto(at.data, a.data, a.Rows(), a.Cols())
		if !almostEqual(a.FrobeniusSq(), at.FrobeniusSq(), 1e-10) {
			return false
		}
		var rows float64
		for i := 0; i < a.Rows(); i++ {
			rows += NormSq(a.Row(i))
		}
		return almostEqual(a.FrobeniusSq(), rows, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestResetKeepsCols(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}})
	a.Reset()
	if a.Rows() != 0 || a.Cols() != 3 {
		t.Fatalf("after Reset shape = %d×%d want 0×3", a.Rows(), a.Cols())
	}
	a.AppendRow([]float64{4, 5, 6})
	if a.At(0, 2) != 6 {
		t.Fatal("AppendRow after Reset broken")
	}
}

func TestDotNorms(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v want 32", got)
	}
	if got := NormSq([]float64{3, 4}); got != 25 {
		t.Fatalf("NormSq = %v want 25", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 4}
	n := Normalize(v)
	if !almostEqual(n, 5, 1e-15) {
		t.Fatalf("Normalize returned %v want 5", n)
	}
	if !almostEqual(NormSq(v), 1, 1e-15) {
		t.Fatal("vector not unit after Normalize")
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy result = %v want [7 9]", y)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Fatal("String returned empty")
	}
}
