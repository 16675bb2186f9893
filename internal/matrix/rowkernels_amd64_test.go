//go:build amd64 && !purego

package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/perfguard"
)

// diffFloats fails on the first entry of got whose bits differ from want's.
func diffFloats(t *testing.T, what string, n int, want, got []float64) {
	t.Helper()
	for k := range want {
		if !sameBits(want[k], got[k]) {
			t.Fatalf("%s n=%d: [%d] = %x (%g), portable body gives %x (%g)",
				what, n, k, math.Float64bits(got[k]), got[k], math.Float64bits(want[k]), want[k])
		}
	}
}

// diffRowKernels runs each row kernel under the selected body and under its
// Go specification on vectors of length n cut from vals, which must hold
// max(3n+2, rows·n) values, and fails on the first result whose bits differ:
// axpy and rot on x, y = vals[0:n], vals[n:2n] (every output starts
// non-zero) with the scalars vals[3n] and vals[3n+1]; NormSqRows on rows
// rows of length n laid end to end from vals[0], and again with the third
// row one element short, which sends its group down the portable path.
func diffRowKernels(t *testing.T, vals []float64, n, rows int) {
	t.Helper()
	x, y := vals[:n], vals[n:2*n]
	a, b := vals[3*n], vals[3*n+1]

	want, got := slices.Clone(y), slices.Clone(y)
	axpyGo(a, x, want)
	axpy(a, x, got)
	diffFloats(t, "axpy", n, want, got)

	wantX, wantY, gotX, gotY := slices.Clone(x), slices.Clone(y), slices.Clone(x), slices.Clone(y)
	rotGo(wantX, wantY, a, b)
	rot(gotX, gotY, a, b)
	diffFloats(t, "rot x", n, wantX, gotX)
	diffFloats(t, "rot y", n, wantY, gotY)

	block := make([][]float64, rows)
	for r := range block {
		block[r] = vals[r*n : (r+1)*n]
	}
	for _, ragged := range []bool{false, true} {
		if ragged {
			if rows < 3 || n == 0 {
				break
			}
			block[2] = block[2][:n-1]
		}
		want = make([]float64, rows)
		normSqRowsGo(block, want)
		got = slices.Repeat([]float64{math.NaN()}, rows)
		got = NormSqRows(block, got)
		diffFloats(t, fmt.Sprintf("NormSqRows %d rows ragged=%v", rows, ragged), n, want, got)
	}
}

// diffSweeps runs the three sweeps of Householder step i on a dim×dim
// matrix (i < dim) under the selected body and under their Go
// specifications, sweepRank2 over its first rows rows, and fails on the
// first result whose bits differ. The matrix, then d and e (length i), take
// vals' values in turn, cycling.
func diffSweeps(t *testing.T, vals []float64, dim, i, rows int) {
	t.Helper()
	next := 0
	fill := func(m int) []float64 {
		v := make([]float64, m)
		for k := range v {
			v[k] = vals[next%len(vals)]
			next++
		}
		return v
	}
	w, d, e := fill(dim*dim), fill(i), fill(i)
	what := fmt.Sprintf("dim=%d i=%d rows=%d: ", dim, i, rows)
	for _, k := range []struct {
		name      string
		spec, run func(w, d, e []float64)
	}{
		{"sweepAxpy", func(w, d, e []float64) { sweepAxpyGo(w, dim, d, e) }, func(w, d, e []float64) { sweepAxpy(w, dim, d, e) }},
		{"sweepDots", func(w, d, e []float64) { sweepDotsGo(w, dim, d, e) }, func(w, d, e []float64) { sweepDots(w, dim, d, e) }},
		{"sweepRank2", func(w, d, e []float64) { sweepRank2Go(w, dim, rows, d, e) }, func(w, d, e []float64) { sweepRank2(w, dim, rows, d, e) }},
	} {
		want := [3][]float64{slices.Clone(w), slices.Clone(d), slices.Clone(e)}
		got := [3][]float64{slices.Clone(w), slices.Clone(d), slices.Clone(e)}
		k.spec(want[0], want[1], want[2])
		k.run(got[0], got[1], got[2])
		for m, part := range []string{" w", " d", " e"} {
			diffFloats(t, what+k.name+part, i, want[m], got[m])
		}
	}
}

// TestRowKernelsBitIdentical compares every row kernel's assembly body with
// its Go specification bit for bit: lengths 0…40 and three spans past 60,
// 250 and 296 (so every n mod 4 and n mod 8), 1…13 rows for the norms (every
// count of whole groups of four and every remainder) and, up to length 68,
// 14…37 (one and two groups of sixteen, each remainder after them), the
// reduction's sweeps at every step i of every dimension 2…64 (so every
// i mod 4 tail of rows and of columns), sweepRank2 over all i rows and over
// one, and values from signed zeros and denormals to overflow, ±Inf and
// NaN — the scalars included.
func TestRowKernelsBitIdentical(t *testing.T) {
	selectBody(t, true)
	var lengths []int
	for _, span := range [][2]int{{0, 40}, {61, 68}, {253, 260}, {293, 300}} {
		for n := span[0]; n <= span[1]; n++ {
			lengths = append(lengths, n)
		}
	}
	for name, pool := range gramValuePools() {
		t.Run(name, func(t *testing.T) {
			for _, n := range lengths {
				for rows := 1; rows <= 37; rows++ {
					if rows > 13 && n > 68 {
						continue
					}
					diffRowKernels(t, pool, n, rows)
				}
			}
			for dim := 2; dim <= 64; dim++ {
				for i := 1; i < dim; i++ {
					diffSweeps(t, pool, dim, i, i)
					diffSweeps(t, pool[dim:], dim, i, 1)
				}
			}
		})
	}
}

// FuzzRowKernelsEquivalence is the same comparison over fuzzed lengths, row
// counts and bit patterns: a word of data is a float64 as it stands (any
// exponent, NaN payload or denormal) or, three times in four, a value of
// moderate size, so that results stay finite often enough to compare
// roundings and not only NaNs. The row count reaches 40 (two groups of
// sixteen and a remainder); the sweeps take their dimension 2…64 and step
// from the length and their rank-2 row count from the row count.
func FuzzRowKernelsEquivalence(f *testing.F) {
	seed := make([]byte, 8*97)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rng.Uint64())
	}
	f.Add(uint8(12), uint16(44), seed)
	f.Add(uint8(3), uint16(7), seed[:64])
	f.Add(uint8(4), uint16(299), seed[8:])
	f.Add(uint8(0), uint16(5), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}) // +Inf, −Inf
	selectBody(f, true)
	f.Fuzz(func(t *testing.T, rows uint8, length uint16, data []byte) {
		words := len(data) / 8
		if words == 0 {
			return
		}
		r, n := 1+int(rows%40), int(length%301)
		vals := make([]float64, max(3*n+2, r*n))
		for i := range vals {
			w := binary.LittleEndian.Uint64(data[8*(i%words):])
			if w&3 == 0 {
				vals[i] = math.Float64frombits(w)
			} else {
				vals[i] = float64(int32(w>>32)) / (1 << 16)
			}
		}
		diffRowKernels(t, vals, n, r)
		dim := 2 + int(length%63)
		i := 1 + int(length/63)%(dim-1)
		diffSweeps(t, vals, dim, i, 1+int(rows)%i)
	})
}

// siteStep is one full-spectrum decomposition on a site-shaped Gram, as the
// P2 site step ran it before it decomposed only what ships (EigAbove):
// EigSymWork on a warm workspace, the five largest eigenvalues zeroed, and
// ReconstructIntoWork rebuilding the Gram from the rest into dst.
type siteStep struct {
	g, dst *Sym
	ws     *EigWorkspace
	col    []float64
}

func newSiteStep(d int) *siteStep {
	return &siteStep{g: rankFiveNoise(rand.New(rand.NewSource(24)), d), dst: NewSym(d), ws: NewEigWorkspace(), col: make([]float64, d)}
}

func (s *siteStep) run(tb testing.TB) {
	vals, vecs, err := EigSymWork(s.g, s.ws)
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < 5 && k < len(vals); k++ {
		vals[k] = 0
	}
	ReconstructIntoWork(s.dst, vecs, vals, s.col)
}

// TestSiteStepBothBodiesBitIdentical runs the whole full-spectrum step and
// the P2 ship step's EigAbove (every eigenvalue ≥ 0 shipped, so inverse
// iteration and the back-transformation run for most of the spectrum)
// under each body and requires the same bits from both: the eigenvalues,
// the eigenvectors, the rebuilt Gram and the largest eigenvalue left,
// d = 1…64. The reduction itself, householder's reflectors, diagonal and
// subdiagonal (every step i and every i mod 4 tail of its sweeps), must
// also give oracleHouseholder's bits, the per-row-call reduction, under
// each body.
func TestSiteStepBothBodiesBitIdentical(t *testing.T) {
	selectBody(t, true)
	for d := 1; d <= 64; d++ {
		var out [2][]float64
		for i, avx2 := range []bool{false, true} {
			useAVX2 = avx2
			s := newSiteStep(d)
			s.run(t)
			out[i] = slices.Concat(s.ws.d[:d], s.ws.v.data, s.dst.data)
			vals, vecs, below, err := EigAbove(s.g, 0, NewEigWorkspace())
			if err != nil {
				t.Fatalf("d=%d: EigAbove: %v", d, err)
			}
			out[i] = slices.Concat(out[i], vals, vecs.data, []float64{below})

			var red [2][]float64
			for k, reduce := range []func(w []float64, n int, d, e []float64){householder, oracleHouseholder} {
				w, dd, e := make([]float64, d*d), make([]float64, d), make([]float64, d)
				transposeInto(w, s.g.data, d, d)
				reduce(w, d, dd, e)
				red[k] = slices.Concat(w, dd, e)
			}
			diffFloats(t, fmt.Sprintf("householder vs oracleHouseholder, avx2=%v", avx2), d, red[1], red[0])
			out[i] = slices.Concat(out[i], red[0])
		}
		diffFloats(t, "site step", d, out[0], out[1])
	}
}

// normSqRowsLap returns one NormSqRows call over a fixed n×d block.
func normSqRowsLap(n, d int) func() {
	rows := randBlock(rand.New(rand.NewSource(25)), n, d)
	dst := make([]float64, n)
	return func() { dst = NormSqRows(rows, dst) }
}

// BenchmarkSiteStep times the site step's pieces under both bodies at the
// benchmark's d = 44: the whole decomposition (EigSymWork and the Gram
// rebuild), tred2 and tql2 alone (each lap first restores the input it
// overwrites, a 44×44 copy), the rebuild alone, and the norms of a 64-row
// wire frame.
func BenchmarkSiteStep(b *testing.B) {
	const d = 44
	for _, body := range kernelBodies {
		b.Run(body.name+"/decomposition", func(b *testing.B) {
			selectBody(b, body.avx2)
			s := newSiteStep(d)
			s.run(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.run(b)
			}
		})
		b.Run(body.name+"/tred2", func(b *testing.B) {
			selectBody(b, body.avx2)
			g := newSiteStep(d).g
			in, w, dd, e := make([]float64, d*d), make([]float64, d*d), make([]float64, d), make([]float64, d)
			transposeInto(in, g.data, d, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(w, in)
				tred2(w, d, dd, e)
			}
		})
		b.Run(body.name+"/tql2", func(b *testing.B) {
			selectBody(b, body.avx2)
			g := newSiteStep(d).g
			in, ind, ine := make([]float64, d*d), make([]float64, d), make([]float64, d)
			transposeInto(in, g.data, d, d)
			tred2(in, d, ind, ine)
			w, dd, e := make([]float64, d*d), make([]float64, d), make([]float64, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(w, in)
				copy(dd, ind)
				copy(e, ine)
				if err := tql2(w, d, dd, e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/reconstruct", func(b *testing.B) {
			selectBody(b, body.avx2)
			s := newSiteStep(d)
			vals, vecs, err := EigSymWork(s.g, s.ws)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ReconstructIntoWork(s.dst, vecs, vals[5:], s.col)
			}
		})
		b.Run(body.name+"/normsqrows-64x44", func(b *testing.B) {
			selectBody(b, body.avx2)
			lap := normSqRowsLap(64, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lap()
			}
		})
	}
}

// kernel is f under the AVX2 body (avx2) or the portable one, as a side
// of a guard row: useAVX2 is set before each lap, untimed.
func kernel(name string, avx2 bool, f func()) perfguard.Body {
	return perfguard.Body{Name: name, Run: f, Prep: func() { useAVX2 = avx2 }}
}

// zeroAllocs wants neither side of any row to allocate, each under the
// body its Prep selects.
func zeroAllocs(t *testing.T, rows ...perfguard.Row) {
	t.Helper()
	for _, r := range rows {
		for _, b := range []perfguard.Body{r.Ref, r.Fast} {
			b.Prep()
			if allocs := testing.AllocsPerRun(10, b.Run); allocs != 0 {
				t.Errorf("%s (%s): %v allocs per call, want 0", r.Name, b.Name, allocs)
			}
		}
	}
}

// TestSiteStepKernelGuard keeps the row kernels worth having: one
// site-step decomposition at d = 44 under the assembly bodies is at least
// 1.35× the portable ones, and neither allocates.
func TestSiteStepKernelGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	selectBody(t, true) // skips without AVX2; its cleanup undoes the switching below
	step := newSiteStep(44)
	run := func() { step.run(t) }
	row := perfguard.Row{Name: "site step d=44", Ref: kernel("portable", false, run), Fast: kernel("avx2", true, run),
		Floor: 1.35, Calls: 10, Readings: 3}
	zeroAllocs(t, row)
	perfguard.Hold(t, row)
}

// TestReductionKernelGuard keeps the fused reduction sweeps and the
// sixteen-row norms worth having: householder at d = 44 is at least 2×
// oracleHouseholder, its per-row-call form, both on the assembly bodies;
// the norms of a 64 × 44 frame are at least 2.5× the portable body; none
// allocates.
func TestReductionKernelGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	selectBody(t, true)
	const n = 44
	in, w, d, e := make([]float64, n*n), make([]float64, n*n), make([]float64, n), make([]float64, n)
	transposeInto(in, rankFiveNoise(rand.New(rand.NewSource(23)), n).data, n, n)
	reduce := func(f func(w []float64, n int, d, e []float64)) func() {
		return func() { copy(w, in); f(w, n, d, e) }
	}
	norms := normSqRowsLap(64, n)
	rows := []perfguard.Row{
		{Name: "reduction d=44", Ref: kernel("oracleHouseholder", true, reduce(oracleHouseholder)),
			Fast: kernel("householder", true, reduce(householder)), Floor: 2, Calls: 40, Readings: 3},
		{Name: "NormSqRows 64×44", Ref: kernel("portable", false, norms), Fast: kernel("avx2", true, norms),
			Floor: 2.5, Calls: 400, Readings: 3},
	}
	zeroAllocs(t, rows...)
	perfguard.Hold(t, rows...)
}
