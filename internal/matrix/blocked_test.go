package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func randBlock(rng *rand.Rand, n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// TestAddBlockMatchesOuterProducts checks the blocked rank-k update against
// the rank-1 reference within reassociation tolerance, across block sizes
// spanning the small-block fallback and the packed kernel.
func TestAddBlockMatchesOuterProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 64, 257} {
		for _, d := range []int{1, 3, 8, 31} {
			rows := randBlock(rng, n, d)
			want := NewSym(d)
			want.AddOuter(2, randBlock(rng, 1, d)[0]) // non-zero starting state
			got := want.Clone()
			for _, row := range rows {
				want.AddOuter(1, row)
			}
			got.AddBlock(rows)

			tol := 1e-12 * (1 + want.MaxAbs()) * float64(n+1)
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					if diff := math.Abs(want.At(i, j) - got.At(i, j)); diff > tol {
						t.Fatalf("n=%d d=%d: entry (%d,%d) differs by %g", n, d, i, j, diff)
					}
				}
			}
			// The blocked result is exactly symmetric.
			for i := 0; i < d; i++ {
				for j := i + 1; j < d; j++ {
					if got.At(i, j) != got.At(j, i) {
						t.Fatalf("n=%d d=%d: asymmetric at (%d,%d)", n, d, i, j)
					}
				}
			}
		}
	}
}

// TestAddDenseBlockMatchesAddBlock pins the Dense entry point to the
// slice-based kernel, whole and split into two row windows.
func TestAddDenseBlockMatchesAddBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, d = 33, 13
	rows := randBlock(rng, n, d)
	b := FromRows(rows)

	want := NewSym(d)
	want.AddBlock(rows)

	got := NewSym(d)
	got.AddDenseBlock(b)
	if diff := maxSymDiff(want, got); diff != 0 {
		t.Fatalf("AddDenseBlock differs from AddBlock by %g", diff)
	}

	// Folding two row windows equals folding the whole block when the
	// split lands on the blocked kernel both times.
	got2 := NewSym(d)
	got2.AddDenseBlock(FromRows(rows[:16]))
	got2.AddDenseBlock(FromRows(rows[16:]))
	if diff := maxSymDiff(want, got2); diff > 1e-12*(1+want.MaxAbs()) {
		t.Fatalf("row windows differ from whole block by %g", diff)
	}
}

// TestGramIntoReusesStorage pins GramInto to AddDenseBlock on a fresh Sym,
// for a wide block and then, in the same storage, the Gram of its
// transpose; and AppendCombination to the row-order sum of axpyGo's
// products.
func TestGramIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, d = 9, 21
	x := FromRows(randBlock(rng, n, d))
	want := NewSym(d)
	want.AddDenseBlock(x)
	g := GramInto(nil, x)
	if diff := maxSymDiff(want, g); diff != 0 {
		t.Fatalf("GramInto(XᵀX) differs from AddDenseBlock by %g", diff)
	}

	xt := TransposeInto(nil, x)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if xt.At(j, i) != x.At(i, j) {
				t.Fatalf("TransposeInto: (%d,%d) = %v, want %v", j, i, xt.At(j, i), x.At(i, j))
			}
		}
	}
	first := &g.data[0]
	g = GramInto(g, xt)
	want = NewSym(n)
	want.AddDenseBlock(xt)
	if g.Dim() != n || &g.data[0] != first {
		t.Fatalf("GramInto(XXᵀ): dimension %d (want %d), storage reused %v", g.Dim(), n, &g.data[0] == first)
	}
	if diff := maxSymDiff(want, g); diff != 0 {
		t.Fatalf("GramInto(XXᵀ) differs from AddDenseBlock by %g", diff)
	}

	c := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	c[3] = 0
	out := NewDense(0, d)
	out.AppendCombination(x, c)
	out.AppendCombination(x, c)
	for k := 0; k < d; k++ {
		var sum float64
		for i, ci := range c {
			sum += float64(ci * x.At(i, k))
		}
		if out.At(0, k) != sum || out.At(1, k) != sum {
			t.Fatalf("AppendCombination column %d: %v, %v, want %v", k, out.At(0, k), out.At(1, k), sum)
		}
	}
}

func maxSymDiff(a, b *Sym) float64 {
	d := a.Clone()
	d.SubSym(b)
	return d.MaxAbs()
}

// TestNormSqRows pins the batched norms to the scalar reference and the
// scratch-reuse contract.
func TestNormSqRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randBlock(rng, 19, 9)
	dst := NormSqRows(rows, nil)
	for i, row := range rows {
		if dst[i] != NormSq(row) {
			t.Fatalf("row %d: %v != %v", i, dst[i], NormSq(row))
		}
	}
	// A large-enough dst is reused, not reallocated.
	again := NormSqRows(rows[:5], dst)
	if &again[0] != &dst[0] {
		t.Fatal("NormSqRows reallocated a sufficient scratch")
	}
}
