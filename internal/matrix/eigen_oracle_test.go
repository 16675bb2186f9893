package matrix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/perfguard"
)

// The specification of EigSymWork: the row-major JAMA port of tred2/tql2 and
// the permute-then-copy-back sort that eigen.go ran until ISSUE 21, verbatim.
// The bodies in eigen.go work on the transposed matrix so that their inner
// loops are contiguous; they must stay Float64bits-identical to these in
// eigenvalues and eigenvectors (TestEigSymBitIdentical,
// FuzzEigSymEquivalence) and worth their different layout (TestEigSymGuard).

// oracleEig is the old EigWorkspace: reused across calls so that the guard
// times the two bodies and not the allocator.
type oracleEig struct {
	v, perm      *Dense
	d, e, sorted []float64
	idx          []int
}

// eigSym is EigSymWork as it was.
func (o *oracleEig) eigSym(s *Sym) (vals []float64, V *Dense, err error) {
	n := s.n
	o.v = reuseDense(o.v, n, n, false)
	o.perm = reuseDense(o.perm, n, n, false)
	o.d, o.e, o.sorted = growFloats(o.d, n), growFloats(o.e, n), growFloats(o.sorted, n)
	if cap(o.idx) < n {
		o.idx = make([]int, n)
	}
	V = o.v
	copy(V.data, s.data)
	d, e := o.d, o.e
	if n == 0 {
		return d, V, nil
	}
	oracleTred2(V, d, e)
	if err := oracleTql2(V, d, e); err != nil {
		return nil, nil, err
	}
	oracleSortEigDesc(d, V, o.perm, o.idx[:n], o.sorted)
	return d, V, nil
}

// oracleTred2 reduces the symmetric matrix stored in V to tridiagonal form using
// Householder similarity transformations, accumulating the orthogonal
// transform in V. On return d holds the diagonal and e the subdiagonal
// (e[0] = 0). This is a port of the public-domain EISPACK/JAMA routine.
func oracleTred2(V *Dense, d, e []float64) {
	n := V.rows
	for j := 0; j < n; j++ {
		d[j] = V.at(n-1, j)
	}

	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = V.at(i-1, j)
				V.set(i, j, 0)
				V.set(j, i, 0)
			}
		} else {
			// Generate the Householder vector.
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}

			// Apply the similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				V.set(j, i, f)
				g = e[j] + V.at(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += V.at(k, j) * d[k]
					e[k] += V.at(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					V.add(k, j, -(f*e[k] + g*d[k]))
				}
				d[j] = V.at(i-1, j)
				V.set(i, j, 0)
			}
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		V.set(n-1, i, V.at(i, i))
		V.set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = V.at(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += V.at(k, i+1) * V.at(k, j)
				}
				for k := 0; k <= i; k++ {
					V.add(k, j, -g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			V.set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = V.at(n-1, j)
		V.set(n-1, j, 0)
	}
	V.set(n-1, n-1, 1)
	e[0] = 0
}

// oracleTql2 finds the eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix by the implicitly shifted QL method, updating the accumulated
// transform in V. Port of the public-domain EISPACK/JAMA routine with an
// iteration cap added.
func oracleTql2(V *Dense, d, e []float64) error {
	n := V.rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	const maxIter = 100
	f, tst1 := 0.0, 0.0
	eps := math.Ldexp(1, -52)
	for l := 0; l < n; l++ {
		// Find a small subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}

		// If m == l, d[l] is an eigenvalue; otherwise iterate.
		if m > l {
			for iter := 0; ; iter++ {
				if iter > maxIter {
					return ErrNoConvergence
				}
				// Compute the implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h

				// The implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])

					// Accumulate the transformation.
					for k := 0; k < n; k++ {
						h = V.at(k, i+1)
						V.set(k, i+1, s*V.at(k, i)+c*h)
						V.set(k, i, c*V.at(k, i)-s*h)
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p

				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// oracleSortEigDesc sorts eigenvalues in descending order, permuting the
// columns of V to match (into perm, then back).
func oracleSortEigDesc(d []float64, V, perm *Dense, idx []int, sorted []float64) {
	n := len(d)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[idx[j-1]] < d[idx[j]]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	for newCol, oldCol := range idx {
		sorted[newCol] = d[oldCol]
		for r := 0; r < V.rows; r++ {
			perm.Set(r, newCol, V.at(r, oldCol))
		}
	}
	copy(d, sorted)
	copy(V.data, perm.data)
}

// diffEigSym decomposes s with the oracle and with EigSymWork on ws and
// requires the same outcome: the same error, or eigenvalues and eigenvectors
// equal bit for bit (two NaNs are equal whatever their payloads). The one
// licensed difference: where a NaN — in the input, or born of an overflow on
// the way — walks the oracle's tql2 off the end of d (an index panic), the
// body in eigen.go reports ErrNoConvergence.
func diffEigSym(t *testing.T, name string, s *Sym, ws *EigWorkspace) {
	t.Helper()
	input := slices.Clone(s.data)
	var oracle oracleEig
	var wantVals []float64
	var wantV *Dense
	var wantErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if re, ok := r.(runtime.Error); !ok || !strings.Contains(re.Error(), "index out of range") {
					panic(r)
				}
				wantErr = ErrNoConvergence
			}
		}()
		wantVals, wantV, wantErr = oracle.eigSym(s)
	}()
	vals, V, err := EigSymWork(s, ws)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s n=%d: err = %v, oracle %v", name, s.n, err, wantErr)
	}
	if !slices.Equal(input, s.data) && !slices.ContainsFunc(input, math.IsNaN) {
		t.Fatalf("%s n=%d: input modified", name, s.n)
	}
	if err != nil {
		return
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	if len(vals) != len(wantVals) || V.rows != s.n || V.cols != s.n {
		t.Fatalf("%s n=%d: %d values, %d×%d vectors", name, s.n, len(vals), V.rows, V.cols)
	}
	for i := range vals {
		if !same(vals[i], wantVals[i]) {
			t.Fatalf("%s n=%d: λ[%d] = %x (%g), oracle %x (%g)", name, s.n, i,
				math.Float64bits(vals[i]), vals[i], math.Float64bits(wantVals[i]), wantVals[i])
		}
	}
	for i := range V.data {
		if !same(V.data[i], wantV.data[i]) {
			t.Fatalf("%s n=%d: V(%d,%d) = %x (%g), oracle %x (%g)", name, s.n, i/s.n, i%s.n,
				math.Float64bits(V.data[i]), V.data[i], math.Float64bits(wantV.data[i]), wantV.data[i])
		}
	}
}

// gramOfRows is the Gram matrix of k random rows scaled by scale, summed
// with AddOuter under weight w: with w ≠ 1 the two triangles differ in the
// last ulp, and SymFromRaw keeps them so.
func gramOfRows(rng *rand.Rand, n, k int, scale, w float64) *Sym {
	g := NewSym(n)
	row := make([]float64, n)
	for r := 0; r < k; r++ {
		for i := range row {
			row[i] = scale * rng.NormFloat64()
		}
		g.AddOuter(w, row)
	}
	return SymFromRaw(n, g.RawData())
}

// rankFiveNoise is the shape a site's Gram has between ships: five strong
// directions over a full-rank floor.
func rankFiveNoise(rng *rand.Rand, n int) *Sym {
	g := gramOfRows(rng, n, 2*n, 0.05, 1)
	row := make([]float64, n)
	for r := 0; r < 5; r++ {
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		g.AddOuter(float64(40*(5-r)), row)
	}
	return g
}

// TestEigSymBitIdentical compares EigSymWork with the oracle bodies, values
// and vectors, over n = 0…64 and every input class the decomposition
// branches on: full rank, rank one, rank k < n (zero eigenvalues, deflation),
// rank five over noise, exact zero and a diagonal with zeros (tred2's
// scale == 0 branch), a Gram whose triangles differ in the last ulp (tred2
// must read the lower one, as the oracle does), entries near 1e±150 (the
// scaling), and NaN/±Inf planted in either triangle. One workspace serves
// every case, so dimension changes and reuse are covered too.
func TestEigSymBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewEigWorkspace()
	asymmetric := 0
	for n := 0; n <= 64; n++ {
		diffEigSym(t, "random", randSym(rng, n), ws)
		diffEigSym(t, "gram-1-row", gramOfRows(rng, n, 1, 1, 1), ws)
		diffEigSym(t, "gram-k-rows", gramOfRows(rng, n, n/2, 1, 1), ws)
		diffEigSym(t, "rank5-noise", rankFiveNoise(rng, n), ws)
		diffEigSym(t, "zero", NewSym(n), ws)
		diag := NewSym(n)
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			diag.Set(i, i, rng.NormFloat64())
		}
		diffEigSym(t, "diagonal-with-zeros", diag, ws)
		ulp := gramOfRows(rng, n, n+3, 1, 0.7)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if ulp.data[i*n+j] != ulp.data[j*n+i] {
					asymmetric++
				}
			}
		}
		diffEigSym(t, "ulp-asymmetric", ulp, ws)
		diffEigSym(t, "1e+150", gramOfRows(rng, n, n, 1e75, 1), ws)
		diffEigSym(t, "1e-150", gramOfRows(rng, n, n, 1e-75, 1), ws)
		if n == 0 {
			continue
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for trial := 0; trial < 4; trial++ {
				s := randSym(rng, n)
				s.data[rng.Intn(n*n)] = bad
				diffEigSym(t, fmt.Sprintf("planted %g", bad), s, ws)
			}
			s := randSym(rng, n)
			s.Set(n/2, n/3, bad)
			diffEigSym(t, fmt.Sprintf("symmetric %g", bad), s, ws)
		}
	}
	if asymmetric == 0 {
		t.Fatal("the ulp-asymmetric class produced no asymmetric entry: AddOuter(0.7, ·) no longer rounds the two triangles apart")
	}
}

// fuzzSym builds the fuzzed matrix of FuzzEigSymEquivalence. A word of data
// is a float64 as it stands (any exponent, NaN payload or denormal) or,
// three times in four, a value of moderate size, so that decompositions
// converge often enough to compare roundings and not only errors. The words
// fill the lower triangle; the upper one mirrors it, or, in the asymmetric
// variant, sits one ulp above it wherever the word is odd. It returns nil
// for data shorter than one word.
func fuzzSym(dim uint8, asym bool, data []byte) *Sym {
	words := len(data) / 8
	if words == 0 {
		return nil
	}
	n := int(dim % 49)
	raw := make([]float64, n*n)
	next := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			w := binary.LittleEndian.Uint64(data[8*(next%words):])
			next++
			x := float64(int32(w>>32)) / (1 << 16)
			if w&3 == 0 {
				x = math.Float64frombits(w)
			}
			raw[i*n+j], raw[j*n+i] = x, x
			if asym && w&1 == 1 {
				raw[j*n+i] = math.Nextafter(x, math.Inf(1))
			}
		}
	}
	return SymFromRaw(n, raw)
}

// overflowSeed is a finite fuzz input (dimension 7) whose entries reach
// 8.6e270: squares overflow inside tred2, so QL fails on it while
// JacobiEigSym decomposes it (TestJacobiFallbackReachable).
var overflowSeed = []byte("01000000000000000000000x")

// shiftOverflowSeed is a finite fuzz input (dimension 150 mod 49 = 3,
// entries 12 336.19, 9.0e-308 and 1.4e-76) that QL fails with no large
// entry at all: at l = 0, d[0] = 0 and e[0] = 9e-308 is not below
// eps·tst1, so tql2's shift (d[1] − g)/(2e[0]) overflows to Inf and the
// iteration turns to NaN. The row-major oracle fails it too.
var shiftOverflowSeed = []byte("100000000000000\x0000000000")

// FuzzEigSymEquivalence is the same comparison over fuzzed dimensions and
// bit patterns (see fuzzSym), failures included: EigSymWork fails a matrix
// only where the oracle fails it too. It also pins what the production
// callers' fallback rests on: where EigSymWork fails a finite matrix —
// squares overflowing inside tred2 (overflowSeed), or tql2's shift
// overflowing on a tiny subdiagonal (shiftOverflowSeed) — JacobiEigSym
// decomposes it with finite eigenvalues.
func FuzzEigSymEquivalence(f *testing.F) {
	seed := make([]byte, 8*97)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rng.Uint64())
	}
	f.Add(uint8(44), false, seed)
	f.Add(uint8(44), true, seed)
	f.Add(uint8(7), true, seed[:64])
	f.Add(uint8(3), false, []byte{0, 0, 0, 0, 0, 0, 0, 0})                                     // exact zero
	f.Add(uint8(2), false, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // NaN, +Inf
	f.Add(uint8(7), false, overflowSeed)                                                       // finite, overflows to NaN inside tred2: the oracle's index panic
	f.Add(uint8(150), true, shiftOverflowSeed)                                                 // finite, tql2's shift overflows
	ws := NewEigWorkspace()
	f.Fuzz(func(t *testing.T, dim uint8, asym bool, data []byte) {
		s := fuzzSym(dim, asym, data)
		if s == nil {
			return
		}
		diffEigSym(t, "fuzz", s, ws)
		if _, _, err := EigSymWork(s, ws); err == nil || slices.ContainsFunc(s.data, notFinite) {
			return
		}
		vals, _, err := JacobiEigSym(s)
		if err != nil || slices.ContainsFunc(vals, notFinite) {
			t.Fatalf("n=%d: EigSymWork failed a finite matrix and JacobiEigSym gave %v, err %v", s.n, vals, err)
		}
	})
}

// notFinite reports a NaN or ±Inf.
func notFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// aboveOverflowRows is a block of two finite rows whose Gram (AddBlock,
// as a P2 site folds it) has the entry 1e308: EigAbove's reduction turns it
// into a NaN, where JacobiEigSym decomposes it, to eigenvalues 1e308 and 1.
// core's TestP2SiteJacobiFallback streams the same rows through a site.
var aboveOverflowRows = [][]float64{{1e154, 1}, {1, 1}}

// TestJacobiFallbackReachable pins why the production eigensolver callers
// still fall back to JacobiEigSym, and that Jacobi decomposes what they
// fail. EigSymWork (sketch.FD, and EigValsSym behind the norms) fails a
// finite Gram large enough to overflow inside tred2 (overflowSeed), and a
// small one whose tiny subdiagonal overflows tql2's shift
// (shiftOverflowSeed). EigAbove (P2Site, which P2SmallSpace's sites run
// too) scales the tridiagonal before its QL, and decomposes both; it fails
// where the reduction itself turns non-finite, as on aboveOverflowRows'
// entry of 1e308. In a probe of random symmetric matrices every such
// failure had a largest entry above 1e150, and a few remained with an
// exact power-of-two prescale of the input, so its fallback stays too.
func TestJacobiFallbackReachable(t *testing.T) {
	above := NewSym(2)
	above.AddBlock(aboveOverflowRows)
	for _, c := range []struct {
		name   string
		s      *Sym
		failer string
		fails  func(*Sym) error
	}{
		{"overflowSeed", fuzzSym(7, false, overflowSeed), "EigSymWork", eigSymErr},
		{"shiftOverflowSeed", fuzzSym(150, true, shiftOverflowSeed), "EigSymWork", eigSymErr},
		{"aboveOverflowRows", above, "EigAbove", func(s *Sym) error {
			_, _, _, err := EigAbove(s, 0, NewEigWorkspace())
			return err
		}},
	} {
		if slices.ContainsFunc(c.s.data, notFinite) {
			t.Fatalf("%s is no longer finite", c.name)
		}
		if err := c.fails(c.s); !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%s on %s: err = %v, want ErrNoConvergence", c.failer, c.name, err)
		}
		vals, _, err := JacobiEigSym(c.s)
		if err != nil || slices.ContainsFunc(vals, notFinite) {
			t.Fatalf("JacobiEigSym on %s: %v, err %v", c.name, vals, err)
		}
	}
}

func eigSymErr(s *Sym) error {
	_, _, err := EigSymWork(s, nil)
	return err
}

// TestNormsFallBackToJacobi: the spectral norms answer on the finite
// matrices QL fails, with Jacobi's largest |λ|, bit for bit (s − 0 is s).
func TestNormsFallBackToJacobi(t *testing.T) {
	for name, s := range map[string]*Sym{
		"overflowSeed":      fuzzSym(7, false, overflowSeed),
		"shiftOverflowSeed": fuzzSym(150, true, shiftOverflowSeed),
	} {
		vals, _, err := JacobiEigSym(s)
		if err != nil {
			t.Fatal(err)
		}
		want := max(math.Abs(vals[0]), math.Abs(vals[len(vals)-1]))
		got, err := CovarianceDiffNorm(s, NewSym(s.Dim()))
		if err != nil || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("CovarianceDiffNorm(%s, 0) = %v, err %v", name, got, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("CovarianceDiffNorm(%s, 0) = %v, Jacobi's largest |λ| is %v", name, got, want)
		}
	}
}

// eigLaps returns, for the rank-five-over-noise Gram of dimension n, one
// decomposition by the oracle and one by EigSymWork, each on its own warm
// workspace.
func eigLaps(tb testing.TB, n int) (oracle, work func()) {
	s := rankFiveNoise(rand.New(rand.NewSource(23)), n)
	o, ws := &oracleEig{}, NewEigWorkspace()
	oracle = func() {
		if _, _, err := o.eigSym(s); err != nil {
			tb.Fatal(err)
		}
	}
	work = func() {
		if _, _, err := EigSymWork(s, ws); err != nil {
			tb.Fatal(err)
		}
	}
	oracle()
	work()
	return oracle, work
}

// TestEigSymGuard keeps the transposed layout worth having: EigSymWork on
// a warm workspace is at least 1.3× the row-major oracle at n = 44 and
// 1.4× at n = 90, and allocates nothing. A reading under the floor is
// taken again, twice at most: `make perf-guard` runs this package first,
// while the toolchain is still compiling the others on the same cores.
func TestEigSymGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	for _, c := range []struct {
		n, calls int
		floor    float64
	}{{44, 20, 1.3}, {90, 4, 1.4}} {
		oracle, work := eigLaps(t, c.n)
		if allocs := testing.AllocsPerRun(10, work); allocs != 0 {
			t.Errorf("EigSymWork n=%d: %v allocs per call on a warm workspace, want 0", c.n, allocs)
		}
		perfguard.Hold(t, perfguard.Row{Name: fmt.Sprintf("EigSym n=%d", c.n),
			Ref: perfguard.Body{Name: "oracle", Run: oracle}, Fast: perfguard.Body{Name: "EigSymWork", Run: work},
			Floor: c.floor, Calls: c.calls, Readings: 3})
	}
}

// at, set and add are the unchecked accessors of the row-major oracle's
// O(n³) loops, where the indices are loop-bounded by construction.
func (m *Dense) at(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *Dense) set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *Dense) add(i, j int, v float64) { m.data[i*m.cols+j] += v }
