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
)

// selectGramBody runs the rest of the test under the named gramRow body and
// restores init's choice afterwards. Asking for the assembly body on a CPU
// without AVX2 skips the test, loudly.
func selectGramBody(t testing.TB, avx2 bool) {
	t.Helper()
	if avx2 && !cpuHasAVX2() {
		t.Skip("SKIPPED: no AVX2 on this CPU (or YMM state not OS-enabled): the assembly gramRow body cannot run here")
	}
	was := useAVX2
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = was })
}

// gramBodies names the two gramRow bodies for subtests and sub-benchmarks.
var gramBodies = []struct {
	name string
	avx2 bool
}{{"portable", false}, {"avx2", true}}

// gramValuePools are the value classes the differential tests draw from; each
// pool is long enough for the largest shape (cj, 64 columns and out at
// n = 300).
func gramValuePools() map[string][]float64 {
	const size = 66*300 + 64
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

// diffGramRow runs both bodies on the same (cj, cols, out) and reports the
// first entry whose bits differ. Two NaNs are equal whatever their payloads.
func diffGramRow(t *testing.T, cj, cols []float64, n int, out []float64) {
	t.Helper()
	want, got := slices.Clone(out), slices.Clone(out)
	gramRowGo(cj, cols, n, want)
	gramRow(cj, cols, n, got)
	for m := range want {
		if math.Float64bits(want[m]) != math.Float64bits(got[m]) && !(math.IsNaN(want[m]) && math.IsNaN(got[m])) {
			t.Fatalf("n=%d columns=%d: out[%d] = %x (%g), portable body gives %x (%g)",
				n, len(out), m, math.Float64bits(got[m]), got[m], math.Float64bits(want[m]), want[m])
		}
	}
}

// TestGramRowBitIdentical compares the assembly body with gramRowGo bit for
// bit: every column count 1..64 (so every pass width and every remainder of
// the eight-column pass), block lengths through 300 with every n mod 4, a
// non-zero starting out, and values from signed zeros and denormals to
// overflow, ±Inf and NaN.
func TestGramRowBitIdentical(t *testing.T) {
	selectGramBody(t, true)
	var lengths []int
	for _, span := range [][2]int{{1, 40}, {61, 68}, {253, 260}, {297, 300}} {
		for n := span[0]; n <= span[1]; n++ {
			lengths = append(lengths, n)
		}
	}
	for name, pool := range gramValuePools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range lengths {
				for m := 1; m <= 64; m++ {
					cj, cols, out := pool[:n], pool[n:n+m*n], pool[n+m*n:n+m*n+m]
					diffGramRow(t, cj, cols, n, out)
				}
			}
		})
	}
}

// FuzzGramRowEquivalence is the same comparison over fuzzed shapes and bit
// patterns: a word of data is a float64 as it stands (any exponent, NaN
// payload or denormal) or, three times in four, a value of moderate size, so
// that sums stay finite often enough to compare roundings and not only NaNs.
func FuzzGramRowEquivalence(f *testing.F) {
	seed := make([]byte, 8*97)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rng.Uint64())
	}
	f.Add(uint8(43), uint16(63), seed)
	f.Add(uint8(7), uint16(2), seed[:64])
	f.Add(uint8(8), uint16(299), seed[8:])
	f.Add(uint8(0), uint16(4), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}) // +Inf, −Inf
	selectGramBody(f, true)
	f.Fuzz(func(t *testing.T, columns uint8, rows uint16, data []byte) {
		words := len(data) / 8
		if words == 0 {
			return
		}
		m, n := 1+int(columns%64), 1+int(rows%300)
		vals := make([]float64, n+m*n+m)
		for i := range vals {
			w := binary.LittleEndian.Uint64(data[8*(i%words):])
			if w&3 == 0 {
				vals[i] = math.Float64frombits(w)
			} else {
				vals[i] = float64(int32(w>>32)) / (1 << 16)
			}
		}
		diffGramRow(t, vals[:n], vals[n:n+m*n], n, vals[n+m*n:])
	})
}

// TestBlockedKernelsBothBodies reruns the blocked-kernel tests under each
// gramRow body by name, whichever one init chose.
func TestBlockedKernelsBothBodies(t *testing.T) {
	for _, body := range gramBodies {
		t.Run(body.name, func(t *testing.T) {
			selectGramBody(t, body.avx2)
			t.Run("AddBlock", TestAddBlockMatchesOuterProducts)
			t.Run("AddDenseBlock", TestAddDenseBlockMatchesAddBlock)
		})
	}
}

// addBlockLap returns a function folding one fixed n×d block into a Gram
// matrix with warm packing scratch.
func addBlockLap(n, d int) func() {
	rows := randBlock(rand.New(rand.NewSource(20)), n, d)
	g, scratch := NewSym(d), NewDense(0, 0)
	g.AddBlock(rows, scratch)
	return func() { g.AddBlock(rows, scratch) }
}

// BenchmarkAddBlock times the rank-k update under both gramRow bodies at the
// wire-stream frame shape (64 rows, d = 44), one row short of it (the n mod 4
// tail) and the HTTP batch shape (256 rows).
func BenchmarkAddBlock(b *testing.B) {
	for _, body := range gramBodies {
		for _, n := range []int{64, 63, 256} {
			b.Run(fmt.Sprintf("%s/%dx44", body.name, n), func(b *testing.B) {
				selectGramBody(b, body.avx2)
				lap := addBlockLap(n, 44)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lap()
				}
			})
		}
	}
}

// TestGramKernelGuard keeps the assembly body worth having (medians of 21
// laps, the two sides of each comparison taking turns so that a noisy spell
// falls on both): at least 2.5× the portable body on a 64 × 44 block and 2×
// on 256 × 44, and no cliff for a block that is not a multiple of four rows —
// 63 × 44 may cost at most 1.3× what 64 × 44 does (a kernel that drops to
// scalar code for such a block costs 4×).
func TestGramKernelGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	selectGramBody(t, true) // skips without AVX2; its cleanup undoes the switching below
	const calls = 40
	lap := func(avx2 bool, n int) func() {
		fold := addBlockLap(n, 44)
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
		portable, asm := medians(lap(false, c.n), lap(true, c.n))
		t.Logf("AddBlock %d×44: portable %v, avx2 %v: %.2fx", c.n, portable, asm, float64(portable)/float64(asm))
		if float64(portable) < c.floor*float64(asm) {
			t.Errorf("avx2 body only %.2fx the portable one at %d×44, want ≥ %gx", float64(portable)/float64(asm), c.n, c.floor)
		}
	}
	full, short := medians(lap(true, 64), lap(true, 63))
	t.Logf("AddBlock avx2: 64×44 %v, 63×44 %v: %.2fx", full, short, float64(short)/float64(full))
	if float64(short) > 1.3*float64(full) {
		t.Errorf("63×44 costs %.2fx the 64×44 block under the avx2 body, want ≤ 1.3x", float64(short)/float64(full))
	}
}
