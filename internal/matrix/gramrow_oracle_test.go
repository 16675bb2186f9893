package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// The packed formulation of the blocked Gram update that gramUpper's row-major
// bodies replaced, kept as their oracle: the block is copied column-major
// (packColumns), every Gram entry is one four-accumulator dot product of two
// packed columns (oracleGramRow, dotUnrolled), and the finished upper
// triangle is copied onto the lower one entry at a time. packColumns and
// dotUnrolled are the old code verbatim, and oracleGramRow is the old
// gramRowGo.

// packColumns writes the n-row block column-major into packed (column j at
// packed[j·n:(j+1)·n]), eight rows at a time so that each run of stores fills
// one cache line of a packed column: a row at a time the stores stride by n,
// which at n = 256 lands every column in the same two L1 sets. The last tile
// of a block that is not a multiple of eight rows backs up over rows already
// packed.
func packColumns(packed []float64, n, d int, rows [][]float64, flat []float64) {
	if n < 8 {
		for i := 0; i < n; i++ {
			for j, v := range blockRow(rows, flat, d, i) {
				packed[j*n+i] = v
			}
		}
		return
	}
	for i := 0; i < n; i += 8 {
		i = min(i, n-8)
		r0, r1, r2, r3 := blockRow(rows, flat, d, i), blockRow(rows, flat, d, i+1), blockRow(rows, flat, d, i+2), blockRow(rows, flat, d, i+3)
		r4, r5, r6, r7 := blockRow(rows, flat, d, i+4), blockRow(rows, flat, d, i+5), blockRow(rows, flat, d, i+6), blockRow(rows, flat, d, i+7)
		for j := 0; j < d; j++ {
			p := packed[j*n+i : j*n+i+8]
			p[0], p[1], p[2], p[3] = r0[j], r1[j], r2[j], r3[j]
			p[4], p[5], p[6], p[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
}

// oracleGramRow is the packed formulation's Gram row: out[m] +=
// dotUnrolled(cj, column m of cols) for each m, where the columns are n long
// and contiguous in cols.
func oracleGramRow(cj, cols []float64, n int, out []float64) {
	cj = cj[:n]
	for m := range out {
		out[m] += dotUnrolled(cj, cols[m*n:(m+1)*n])
	}
}

// dotUnrolled is Dot for equal-length slices with four independent
// accumulators, trading the sequential rounding order for instruction-level
// parallelism in the blocked kernels' inner loop.
func dotUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// oracleAddBlock is the packed formulation of addRowBlock over scratch, the
// packing buffer AddBlock used to take.
func oracleAddBlock(s *Sym, n int, rows [][]float64, flat []float64, scratch *Dense) {
	d := s.n
	if n < addBlockCutoff {
		for i := 0; i < n; i++ {
			s.AddOuter(1, blockRow(rows, flat, d, i))
		}
		return
	}
	*scratch = *reuseDense(scratch, d, n, false)
	packed := scratch.data
	packColumns(packed, n, d, rows, flat)
	for j := 0; j < d; j++ {
		oracleGramRow(packed[j*n:(j+1)*n], packed[j*n:], n, s.data[j*d+j:(j+1)*d])
	}
	for j := 0; j < d; j++ {
		for k := j + 1; k < d; k++ {
			s.data[k*d+j] = s.data[j*d+k]
		}
	}
}

// oracleGramUpper is the oracle's upper triangle of an n-row block's Gram
// added into a copy of the d×d row-major g, whose lower triangle it leaves
// as it is.
func oracleGramUpper(rows [][]float64, flat []float64, n, d int, g []float64) []float64 {
	packed := make([]float64, n*d)
	packColumns(packed, n, d, rows, flat)
	want := append([]float64(nil), g...)
	for j := 0; j < d; j++ {
		oracleGramRow(packed[j*n:(j+1)*n], packed[j*n:], n, want[j*d+j:(j+1)*d])
	}
	return want
}

// gramValuePools are the value classes the differential tests draw from; each
// pool is long enough for the largest block they build (256 rows of 90
// columns, each row at its own offset, plus the starting entries).
func gramValuePools() map[string][]float64 {
	const size = 256*96 + 90*90 + 64
	rng := rand.New(rand.NewSource(18))
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	pools := map[string][]float64{}
	fill := func(name string, draw func() float64) {
		p := make([]float64, size)
		for i := range p {
			p[i] = draw()
		}
		pools[name] = p
	}
	fill("normal", rng.NormFloat64)
	fill("zeros-denormals", func() float64 {
		switch rng.Intn(5) {
		case 0:
			return math.Copysign(0, sign())
		case 1:
			return sign() * math.Float64frombits(uint64(1+rng.Intn(1000))) // 5e-324 …
		case 2:
			return sign() * 1e-310 * rng.Float64()
		case 3:
			return sign() * 1e-154 * rng.Float64() // products land among the denormals
		default:
			return rng.NormFloat64()
		}
	})
	fill("1e±300", func() float64 {
		return sign() * math.Pow(10, 600*rng.Float64()-300)
	})
	fill("inf-nan", func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.Inf(int(sign()))
		case 1:
			return math.NaN()
		default:
			return rng.NormFloat64()
		}
	})
	return pools
}

// oracleRows and oracleDims are the block shapes the differential tests
// cover: every n mod 4, every d mod 4 and band width, the wire frame's 64
// rows and its neighbours, the HTTP batch's 256, and the bench dimensions.
var (
	oracleRows = []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 63, 64, 65, 256}
	oracleDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 44, 90}
)

// testBlock lays n rows of d values from vals out in the three layouts the
// kernels tell apart, each starting at an odd offset: rows of their own
// (every row a backing array of its own), views (rows d+1 apart in one
// array, so each is found by stepping from the first — backwards when
// reversed) and flat (one row-major array).
func testBlock(vals []float64, n, d int, reversed bool) (rows, views [][]float64, flat []float64) {
	rows = make([][]float64, n)
	views = make([][]float64, n)
	buf := make([]float64, 1+n*(d+1))
	for i := range rows {
		own := make([]float64, d+2*(i%2)+1)
		off := 1 + 2*(i%2)
		copy(own[off:], vals[i*d:(i+1)*d])
		rows[i] = own[off : off+d]
		at := 1 + i*(d+1)
		if reversed {
			at = 1 + (n-1-i)*(d+1)
		}
		views[i] = buf[at : at+d : at+d]
		copy(views[i], vals[i*d:(i+1)*d])
	}
	flat = make([]float64, n*d+3)[3:]
	copy(flat, vals[:n*d])
	return rows, views, flat
}

// sameBits reports whether two results are the same float64: equal bits, or
// two NaNs whatever their payloads.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// diffSym fails the test at the first entry where got and want differ.
func diffSym(t *testing.T, what string, got, want *Sym) {
	t.Helper()
	for i, w := range want.data {
		if !sameBits(got.data[i], w) {
			d := want.n
			t.Fatalf("%s: entry (%d,%d) = %x (%g), oracle gives %x (%g)",
				what, i/d, i%d, math.Float64bits(got.data[i]), got.data[i], math.Float64bits(w), w)
		}
	}
}

// TestAddBlockMatchesOracle holds AddBlock and AddDenseBlock to the packed
// formulation bit for bit, from a non-zero, asymmetric starting Gram, over
// every shape in oracleRows × oracleDims, the four value pools and the three
// layouts of testBlock.
func TestAddBlockMatchesOracle(t *testing.T) {
	for name, pool := range gramValuePools() {
		t.Run(name, func(t *testing.T) {
			scratch := NewDense(0, 0)
			for _, d := range oracleDims {
				start := NewSym(d)
				copy(start.data, pool[len(pool)-d*d:])
				for _, n := range oracleRows {
					rows, views, flat := testBlock(pool, n, d, n%2 == 1)
					want := start.Clone()
					oracleAddBlock(want, n, rows, nil, scratch)
					got := start.Clone()
					got.AddBlock(rows)
					diffSym(t, "AddBlock", got, want)
					got = start.Clone()
					got.AddBlock(views)
					diffSym(t, "AddBlock of views", got, want)
					got = start.Clone()
					got.AddDenseBlock(&Dense{rows: n, cols: d, data: flat})
					diffSym(t, "AddDenseBlock", got, want)
				}
			}
		})
	}
}

// TestAddBlockAsymmetricStart pins what the fold does with a Gram whose
// lower triangle is not its upper one — what AddOuter with a weight other
// than 1 leaves (see Sym): the upper triangle accumulates, the lower one is
// overwritten, so the result equals the oracle's bit for bit and is exactly
// symmetric.
func TestAddBlockAsymmetricStart(t *testing.T) {
	const n, d = 64, 44
	rng := rand.New(rand.NewSource(21))
	start := NewSym(d)
	for _, row := range randBlock(rng, 10, d) {
		start.AddOuter(0.5+rng.Float64(), row)
	}
	asym := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if start.data[i*d+j] != start.data[j*d+i] {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("ten weighted rank-1 updates left the Gram exactly symmetric; the test needs an asymmetric start")
	}
	t.Logf("%d of %d pairs asymmetric before the fold", asym, d*(d-1)/2)
	rows := randBlock(rng, n, d)
	want := start.Clone()
	oracleAddBlock(want, n, rows, nil, NewDense(0, 0))
	got := start.Clone()
	got.AddBlock(rows)
	diffSym(t, "AddBlock", got, want)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if math.Float64bits(got.data[i*d+j]) != math.Float64bits(got.data[j*d+i]) {
				t.Fatalf("asymmetric after the fold at (%d,%d)", i, j)
			}
		}
	}
}
