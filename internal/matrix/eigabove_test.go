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

// aboveSym builds the fuzz target's matrix from data, n = dim % 65. With
// gram set it is the Gram of rows read from data (a site's shape: PSD, rank
// at most the row count), otherwise a symmetric matrix read entry by entry.
// Every entry is a 16-bit mantissa times 2^e, e in [−24, 24): moderate, so
// that EigSymWork never fails, but spread over fourteen decades.
func aboveSym(dim uint8, gram bool, data []byte) *Sym {
	n := int(dim % 65)
	words := len(data) / 4
	next := 0
	word := func() float64 {
		if words == 0 {
			return 0
		}
		w := binary.LittleEndian.Uint32(data[4*(next%words):])
		next++
		return math.Ldexp(float64(int16(w)), int(w>>16)%48-24)
	}
	s := NewSym(n)
	if !gram {
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s.Set(i, j, word())
			}
		}
		return s
	}
	row := make([]float64, n)
	for r := 0; r < words/max(n, 1) && r < 2*n; r++ {
		for i := range row {
			row[i] = word()
		}
		s.AddOuter(1, row)
	}
	return SymFromRaw(n, s.RawData())
}

// aboveThresh picks a threshold from the reference spectrum vals
// (descending): between vals[i−1] and vals[i] at a fraction of the gap for
// i = sel mod (n+1), above vals[0] for i = 0 (nothing ships) and below
// vals[n−1] for i = n (everything ships).
func aboveThresh(vals []float64, sel uint16) float64 {
	n := len(vals)
	if n == 0 {
		return 1
	}
	i, frac := int(sel)%(n+1), float64(sel>>8)/256
	switch i {
	case 0:
		return vals[0] + 1 + math.Abs(vals[0])
	case n:
		return vals[n-1] - 1 - math.Abs(vals[n-1])
	}
	return vals[i] + frac*(vals[i-1]-vals[i])
}

// diffEigAbove holds EigAbove on s at thresh to EigSymWork's spectrum: the
// same shipped count but for eigenvalues within 1e-12·‖s‖_F of thresh, each
// value and the largest one below thresh within that much, the vectors
// orthonormal to 1e-12 and each residual ‖s·v − λ·v‖ within 1e-12·‖s‖_F.
func diffEigAbove(t *testing.T, s *Sym, thresh float64, ws, ref *EigWorkspace) {
	t.Helper()
	n := s.Dim()
	want, _, err := EigSymWork(s, ref)
	if err != nil {
		t.Fatalf("n=%d: EigSymWork: %v", n, err)
	}
	vals, vecs, below, err := EigAbove(s, thresh, ws)
	if err != nil {
		t.Fatalf("n=%d thresh=%g: EigAbove: %v", n, thresh, err)
	}
	var fro float64
	for _, x := range s.data {
		fro += x * x
	}
	tol := 1e-12 * math.Sqrt(fro)
	k, wantK := len(vals), 0
	for wantK < n && want[wantK] >= thresh {
		wantK++
	}
	for i := min(k, wantK); i < max(k, wantK); i++ {
		if math.Abs(want[i]-thresh) > tol {
			t.Fatalf("n=%d thresh=%g: %d shipped, want %d; λ%d = %g is %g from thresh (tol %g)", n, thresh, k, wantK, i, want[i], want[i]-thresh, tol)
		}
	}
	for i, v := range vals {
		if math.Abs(v-want[i]) > tol || (i > 0 && v > vals[i-1]) {
			t.Fatalf("n=%d: λ%d = %g, want %g (tol %g), values %v", n, i, v, want[i], tol, vals)
		}
	}
	if k < n {
		if math.Abs(below-want[k]) > tol {
			t.Fatalf("n=%d: below = %g, want %g (tol %g)", n, below, want[k], tol)
		}
	} else if !math.IsInf(below, -1) {
		t.Fatalf("n=%d: below = %g with every eigenvalue shipped, want −Inf", n, below)
	}
	if vecs.rows != k || vecs.cols != n {
		t.Fatalf("n=%d: vecs %d×%d, want %d×%d", n, vecs.rows, vecs.cols, k, n)
	}
	sv := make([]float64, n)
	for i := 0; i < k; i++ {
		v := vecs.Row(i)
		for j := 0; j <= i; j++ {
			dot, id := Dot(v, vecs.Row(j)), 0.0
			if i == j {
				id = 1
			}
			if math.Abs(dot-id) > 1e-12 {
				t.Fatalf("n=%d: v%d·v%d = %g, want %g", n, i, j, dot, id)
			}
		}
		var res float64
		for r := range sv {
			sv[r] = Dot(s.data[r*n:(r+1)*n], v) - vals[i]*v[r]
			res += sv[r] * sv[r]
		}
		if res = math.Sqrt(res); res > tol {
			t.Fatalf("n=%d: ‖s·v%d − λ·v%d‖ = %g, want ≤ %g", n, i, i, res, tol)
		}
	}
}

// FuzzEigAbove is EigAbove's specification: a differential test against
// EigSymWork (diffEigAbove) over fuzzed matrices (aboveSym) and thresholds
// placed in the reference spectrum (aboveThresh). Its seeds are a Gram of
// rank one, the zero matrix, repeated eigenvalues (the identity, a scaled
// permutation's Gram), a general symmetric matrix, and Grams where every
// eigenvalue or none ships.
func FuzzEigAbove(f *testing.F) {
	seed := make([]byte, 4*44*88)
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], uint32(rng.Intn(1<<16))|uint32(20+rng.Intn(8))<<16)
	}
	unit := binary.LittleEndian.AppendUint32(nil, 1|24<<16) // the entry 1
	f.Add(uint8(44), true, uint16(1), seed)
	f.Add(uint8(44), true, uint16(3|128<<8), seed)
	f.Add(uint8(44), true, uint16(44), seed)               // every eigenvalue ships
	f.Add(uint8(44), true, uint16(0), seed)                // none ships
	f.Add(uint8(44), false, uint16(7), seed)               // symmetric, indefinite
	f.Add(uint8(44), true, uint16(1), seed[:4*44])         // rank one
	f.Add(uint8(20), false, uint16(5), []byte{0, 0, 0, 0}) // zero
	f.Add(uint8(20), true, uint16(20), []byte{0, 0, 0, 0}) // zero, every eigenvalue ships
	f.Add(uint8(9), true, uint16(4), unit)                 // a Gram of all-ones rows: rank one, eight zeros
	ident := make([]byte, 0, 4*12*12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			w := uint32(24 << 16) // 0
			if i == j {
				w = 3 | 24<<16
			}
			ident = binary.LittleEndian.AppendUint32(ident, w)
		}
	}
	f.Add(uint8(12), true, uint16(12), ident) // 9·I: one eigenvalue, twelve times
	f.Add(uint8(12), true, uint16(6), ident)
	ws, ref := NewEigWorkspace(), NewEigWorkspace()
	f.Fuzz(func(t *testing.T, dim uint8, gram bool, sel uint16, data []byte) {
		s := aboveSym(dim, gram, data)
		want, _, err := EigSymWork(s, ref)
		if err != nil {
			t.Fatal(err)
		}
		diffEigAbove(t, s, aboveThresh(slices.Clone(want), sel), ws, ref)
	})
}

// TestEigAboveSiteShapes runs the differential test on the Gram shapes the
// eigensolver tests use, at every threshold between their eigenvalues.
func TestEigAboveSiteShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	ws, ref := NewEigWorkspace(), NewEigWorkspace()
	for _, n := range []int{0, 1, 2, 3, 7, 44, 64} {
		for _, s := range []*Sym{randSym(rng, n), gramOfRows(rng, n, 1, 1, 1), gramOfRows(rng, n, n/2, 1, 1), rankFiveNoise(rng, n), NewSym(n), Identity(n).gramSym()} {
			want, _, err := EigSymWork(s, ref)
			if err != nil {
				t.Fatal(err)
			}
			want = slices.Clone(want)
			for sel := 0; sel <= n; sel++ {
				diffEigAbove(t, s, aboveThresh(want, uint16(sel|128<<8)), ws, ref)
			}
		}
	}
}

// gramSym is the Gram of m's rows.
func (m *Dense) gramSym() *Sym {
	s := NewSym(m.cols)
	for i := 0; i < m.rows; i++ {
		s.AddOuter(1, m.Row(i))
	}
	return s
}

// shipLaps returns one site ship step each way on a rank-five-over-noise
// Gram of dimension n with k directions over the threshold: before,
// EigSymWork and the rebuild of the Gram from the eigenpairs left
// (ReconstructIntoWork); now, EigAbove and one AddOuter(−λ, v) per shipped
// pair on a copy of the Gram. idle is EigAbove with nothing over the
// threshold.
func shipLaps(tb testing.TB, n, k int) (before, now, idle func()) {
	g := rankFiveNoise(rand.New(rand.NewSource(23)), n)
	full, _, err := EigSymWork(g, nil)
	if err != nil {
		tb.Fatal(err)
	}
	thresh := (full[k-1] + full[k]) / 2
	wsOld, wsNew := NewEigWorkspace(), NewEigWorkspace()
	dst, col := NewSym(n), make([]float64, n)
	before = func() {
		vals, vecs, err := EigSymWork(g, wsOld)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < k; i++ {
			vals[i] = 0
		}
		ReconstructIntoWork(dst, vecs, vals, col)
	}
	now = func() {
		vals, vecs, _, err := EigAbove(g, thresh, wsNew)
		if err != nil || len(vals) != k {
			tb.Fatalf("EigAbove: %d shipped (want %d), err %v", len(vals), k, err)
		}
		copy(dst.data, g.data)
		for i, lam := range vals {
			dst.AddOuter(-lam, vecs.Row(i))
		}
	}
	idle = func() {
		if vals, _, _, err := EigAbove(g, 2*full[0], wsNew); err != nil || len(vals) != 0 {
			tb.Fatalf("EigAbove above λ₁: %d shipped, err %v", len(vals), err)
		}
	}
	before()
	now()
	idle()
	return before, now, idle
}

// TestEigAboveGuard keeps the ship step worth having: at d = 44 on a
// site-shaped Gram with three directions over the threshold, EigAbove and
// its three downdates are at least 2× EigSymWork and the rebuild, and
// neither allocates on a warm workspace. The idle step (nothing ships) is
// logged, and so is the ratio under the race detector (perfguard.Race). A
// reading under the floor is taken again, twice at most, as
// TestEigSymGuard does.
func TestEigAboveGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const n, k = 44, 3
	before, now, idle := shipLaps(t, n, k)
	old := perfguard.Body{Name: "EigSymWork+rebuild", Run: before}
	ship := perfguard.Body{Name: "EigAbove+downdate", Run: now}
	quiet := perfguard.Body{Name: "EigAbove idle", Run: idle}
	for _, b := range []perfguard.Body{old, ship, quiet} {
		if allocs := testing.AllocsPerRun(10, b.Run); allocs != 0 {
			t.Errorf("%s: %v allocs per call on a warm workspace, want 0", b.Name, allocs)
		}
	}
	perfguard.Hold(t,
		perfguard.Row{Name: fmt.Sprintf("ship step d=%d, %d shipped", n, k), Ref: old, Fast: ship,
			Floor: 2, Calls: 10, Readings: 3, LogOnly: perfguard.Race},
		perfguard.Row{Name: "ship step, nothing shipped (no floor)", Ref: old, Fast: quiet, Calls: 10})
}

// BenchmarkEigAbove times the ship step's pieces at the benchmark's d = 44
// on a rank-five-over-noise Gram: EigAbove shipping three directions with
// their downdates, EigAbove shipping none, and the reduction and tqlrat
// alone (each lap first restores the input it overwrites).
func BenchmarkEigAbove(b *testing.B) {
	const n = 44
	before, now, idle := shipLaps(b, n, 3)
	for _, c := range []struct {
		name string
		f    func()
	}{{"eigsymwork+rebuild", before}, {"ship3", now}, {"idle", idle}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.f()
			}
		})
	}
	g := rankFiveNoise(rand.New(rand.NewSource(23)), n)
	in, w, d, e := make([]float64, n*n), make([]float64, n*n), make([]float64, n), make([]float64, n)
	transposeInto(in, g.data, n, n)
	b.Run("householder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(w, in)
			householder(w, n, d, e)
		}
	})
	copy(w, in)
	householder(w, n, d, e)
	diag, e2 := make([]float64, n), make([]float64, n)
	lam, e2w := make([]float64, n), make([]float64, n)
	for i := range diag {
		diag[i] = w[i*n+i]
		if i+1 < n {
			e2[i] = e[i+1] * e[i+1]
		}
	}
	b.Run("tqlrat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(lam, diag)
			copy(e2w, e2)
			if err := tqlrat(lam, e2w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
