//go:build amd64 && !purego

package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cpu"
)

// selectBody runs the rest of the test under the named body of every kernel
// — gramUpper and the row kernels, which the one useAVX2 switches together —
// and restores init's choice afterwards. Asking for the assembly bodies on a
// CPU without AVX2 skips the test, loudly.
func selectBody(t testing.TB, avx2 bool) {
	t.Helper()
	if avx2 && !cpu.AVX2 {
		t.Skip("SKIPPED: no AVX2 on this CPU (or YMM state not OS-enabled): the assembly kernel bodies cannot run here")
	}
	was := useAVX2
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = was })
}

// kernelBodies names the two bodies for subtests and sub-benchmarks.
var kernelBodies = []struct {
	name string
	avx2 bool
}{{"portable", false}, {"avx2", true}}

// diffGramUpper runs both bodies of gramUpper on an n-row block of d-column
// rows in the form given (rows or flat, the layout named for the report)
// from the same starting Gram g, and reports the first entry where either
// differs from the packed oracle: every upper entry must have its bits, and
// every lower one must be left as it was.
func diffGramUpper(t *testing.T, layout string, rows [][]float64, flat []float64, n, d int, g []float64) {
	t.Helper()
	want := oracleGramUpper(rows, flat, n, d, g)
	for _, body := range kernelBodies {
		useAVX2 = body.avx2
		got := slices.Clone(g)
		gramUpper(rows, flat, n, d, got)
		for e := range want {
			if !sameBits(got[e], want[e]) {
				t.Fatalf("%s body, %s, n=%d d=%d: entry (%d,%d) = %x (%g), oracle gives %x (%g)",
					body.name, layout, n, d, e/d, e%d,
					math.Float64bits(got[e]), got[e], math.Float64bits(want[e]), want[e])
			}
		}
	}
}

// TestGramRowBitIdentical compares both bodies of gramUpper with the packed
// oracle bit for bit: blocks of 1…13, 63, 64, 65 and 256 rows (every n mod
// 4) and oracleDims columns (every d mod 4, every band width and every
// position of the diagonal in a band), in the three layouts of testBlock
// (views reversed for odd n), a non-zero, asymmetric starting Gram, and
// values from signed zeros and denormals to overflow, ±Inf and NaN.
func TestGramRowBitIdentical(t *testing.T) {
	selectBody(t, true)
	lengths := append([]int{1, 2, 3}, oracleRows...)
	for name, pool := range gramValuePools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range lengths {
				for _, d := range oracleDims {
					rows, views, flat := testBlock(pool, n, d, n%2 == 1)
					g := pool[len(pool)-d*d:]
					diffGramUpper(t, "rows", rows, nil, n, d, g)
					diffGramUpper(t, "views", views, nil, n, d, g)
					diffGramUpper(t, "flat", nil, flat, n, d, g)
				}
			}
		})
	}
}

// FuzzGramRowEquivalence is the same comparison over fuzzed shapes and bit
// patterns: a word of data is a float64 as it stands (any exponent, NaN
// payload or denormal) or, three times in four, a value of moderate size, so
// that sums stay finite often enough to compare roundings and not only NaNs.
// The slice form's rows are views spaced d+1 apart in one array, so they
// neither touch nor start on a common alignment, and every third input
// moves one row out of line, which leaves the rows to their headers.
func FuzzGramRowEquivalence(f *testing.F) {
	seed := make([]byte, 8*97)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rng.Uint64())
	}
	f.Add(uint16(63), uint8(43), false, seed)
	f.Add(uint16(2), uint8(7), true, seed[:64])
	f.Add(uint16(299), uint8(8), false, seed[8:])
	f.Add(uint16(4), uint8(0), true, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}) // +Inf, −Inf
	selectBody(f, true)
	f.Fuzz(func(t *testing.T, nRows uint16, dim uint8, asFlat bool, data []byte) {
		words := len(data) / 8
		if words == 0 {
			return
		}
		n, d := 1+int(nRows%300), 1+int(dim%96)
		vals := make([]float64, n*(d+1)+d*d)
		for i := range vals {
			w := binary.LittleEndian.Uint64(data[8*(i%words):])
			if w&3 == 0 {
				vals[i] = math.Float64frombits(w)
			} else {
				vals[i] = float64(int32(w>>32)) / (1 << 16)
			}
		}
		g := vals[len(vals)-d*d:]
		if asFlat {
			diffGramUpper(t, "flat", nil, vals[:n*d], n, d, g)
			return
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = vals[1+i*(d+1) : 1+i*(d+1)+d]
		}
		if n > 2 && nRows%3 == 0 {
			rows[n/2] = append([]float64(nil), rows[n/2]...)
		}
		diffGramUpper(t, "views", rows, nil, n, d, g)
	})
}

// TestBlockedKernelsBothBodies reruns the kernel-backed tests under each
// body by name, whichever one init chose: the blocked Gram update (against
// the packed oracle too, from an asymmetric start as well), the block row
// norms, the rank-1 update, GramInto and AppendCombination, and the
// eigensolver against its oracle.
func TestBlockedKernelsBothBodies(t *testing.T) {
	for _, body := range kernelBodies {
		t.Run(body.name, func(t *testing.T) {
			selectBody(t, body.avx2)
			t.Run("AddBlock", TestAddBlockMatchesOuterProducts)
			t.Run("AddDenseBlock", TestAddDenseBlockMatchesAddBlock)
			t.Run("AddBlockOracle", TestAddBlockMatchesOracle)
			t.Run("AsymmetricStart", TestAddBlockAsymmetricStart)
			t.Run("NormSqRows", TestNormSqRows)
			t.Run("AddOuter", TestSymAddOuter)
			t.Run("GramInto", TestGramIntoReusesStorage)
			t.Run("EigSym", TestEigSymBitIdentical)
		})
	}
}

// addBlockLap returns a function folding one fixed n×d block into a Gram
// matrix: rows of their own (randBlock), or — views — the same rows as views
// of one buffer, the layout the decoders and the shard stage hand over.
func addBlockLap(n, d int, views bool) func() {
	rows := randBlock(rand.New(rand.NewSource(20)), n, d)
	if views {
		rows = FromRows(rows).rowViews()
	}
	g := NewSym(d)
	g.AddBlock(rows)
	return func() { g.AddBlock(rows) }
}

// rowViews returns m's rows as views of its storage.
func (m *Dense) rowViews() [][]float64 {
	rows := make([][]float64, m.rows)
	for i := range rows {
		rows[i] = m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
	}
	return rows
}

// oracleLap is addBlockLap for the packed oracle, on warm packing scratch.
func oracleLap(n, d int) func() {
	rows := randBlock(rand.New(rand.NewSource(20)), n, d)
	g, scratch := NewSym(d), NewDense(0, 0)
	oracleAddBlock(g, n, rows, nil, scratch)
	return func() { oracleAddBlock(g, n, rows, nil, scratch) }
}

// BenchmarkAddBlock times the rank-k update under both bodies at the
// wire-stream frame shape (64 rows, d = 44), one row short of it (the n mod 4
// tail) and the HTTP batch shape (256 rows), on rows of their own; the
// views- shapes fold the same rows as views of one buffer, and
// packed-oracle the packed formulation the bodies replaced.
func BenchmarkAddBlock(b *testing.B) {
	run := func(name string, avx2 bool, lap func() func()) {
		b.Run(name, func(b *testing.B) {
			selectBody(b, avx2)
			fold := lap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fold()
			}
		})
	}
	for _, body := range kernelBodies {
		for _, n := range []int{64, 63, 256} {
			run(fmt.Sprintf("%s/%dx44", body.name, n), body.avx2, func() func() { return addBlockLap(n, 44, false) })
		}
		for _, n := range []int{64, 256} {
			run(fmt.Sprintf("%s/views-%dx44", body.name, n), body.avx2, func() func() { return addBlockLap(n, 44, true) })
		}
	}
	for _, n := range []int{64, 256} {
		run(fmt.Sprintf("packed-oracle/%dx44", n), false, func() func() { return oracleLap(n, 44) })
	}
}

// TestGramKernelGuard keeps the assembly body worth having (medians of 21
// laps, the two sides of each comparison taking turns so that a noisy spell
// falls on both): at least 2.5× the portable body on a 64 × 44 block and 2×
// on 256 × 44, at least 1.2× the packed oracle on 64 × 44, and no cliff for
// a block that is not a multiple of four rows — 63 × 44 may cost at most
// 1.3× what 64 × 44 does (a kernel that drops to scalar code for such a
// block costs 4×).
func TestGramKernelGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	selectBody(t, true) // skips without AVX2; its cleanup undoes the switching below
	const calls = 40
	lap := func(avx2 bool, fold func()) func() {
		return func() {
			useAVX2 = avx2
			for k := 0; k < calls; k++ {
				fold()
			}
		}
	}
	medians := func(a, b func()) (time.Duration, time.Duration) {
		var ta, tb [21]time.Duration
		for i := range ta {
			start := time.Now()
			a()
			ta[i] = time.Since(start) / calls
			start = time.Now()
			b()
			tb[i] = time.Since(start) / calls
		}
		slices.Sort(ta[:])
		slices.Sort(tb[:])
		return ta[len(ta)/2], tb[len(tb)/2]
	}
	for _, c := range []struct {
		n     int
		floor float64
	}{{64, 2.5}, {256, 2}} {
		portable, asm := medians(lap(false, addBlockLap(c.n, 44, false)), lap(true, addBlockLap(c.n, 44, false)))
		t.Logf("AddBlock %d×44: portable %v, avx2 %v: %.2fx", c.n, portable, asm, float64(portable)/float64(asm))
		if float64(portable) < c.floor*float64(asm) {
			t.Errorf("avx2 body only %.2fx the portable one at %d×44, want ≥ %gx", float64(portable)/float64(asm), c.n, c.floor)
		}
	}
	oracle, asm := medians(lap(true, oracleLap(64, 44)), lap(true, addBlockLap(64, 44, false)))
	t.Logf("AddBlock 64×44: packed oracle %v, avx2 %v: %.2fx", oracle, asm, float64(oracle)/float64(asm))
	if float64(oracle) < 1.2*float64(asm) {
		t.Errorf("avx2 body only %.2fx the packed oracle at 64×44, want ≥ 1.2x", float64(oracle)/float64(asm))
	}
	full, short := medians(lap(true, addBlockLap(64, 44, false)), lap(true, addBlockLap(63, 44, false)))
	t.Logf("AddBlock avx2: 64×44 %v, 63×44 %v: %.2fx", full, short, float64(short)/float64(full))
	if float64(short) > 1.3*float64(full) {
		t.Errorf("63×44 costs %.2fx the 64×44 block under the avx2 body, want ≤ 1.3x", float64(short)/float64(full))
	}
}
