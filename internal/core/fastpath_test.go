package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/perfguard"
)

// Fast-ingest-mode harness: the blocked fast paths (NewP1Fast, NewP2Fast,
// NewP2SmallSpaceFast) trade byte-identity for per-block linear algebra, so
// they are tested against the properties the modes document instead of
// against exact mode's bits:
//
//   1. the covariance guarantee 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F at every
//      batch boundary, on adversarial streams;
//   2. message counts within the documented factor of exact mode on the
//      same blocks (P1: identical; P2/P2small: ≤ the ship-early factor 2);
//   3. a ≥5× ingest speedup floor over exact per-row ingestion;
//   4. a steady-state zero-allocation site hot path.

// adversarialStreams are the stress shapes the fast paths must survive:
// spiky Frobenius mass (a huge row right after the side-channel settles),
// a single hot site receiving nearly everything, and rows tuned to hover
// at the decomposition threshold.
func adversarialStreams(n, d, m int) map[string]func() (rows [][]float64, sites []int) {
	gauss := func(rng *rand.Rand, scale float64) []float64 {
		row := make([]float64, d)
		for j := range row {
			row[j] = scale * rng.NormFloat64()
		}
		if matrix.NormSq(row) == 0 {
			row[0] = scale
		}
		return row
	}
	return map[string]func() ([][]float64, []int){
		"spiky-mass": func() ([][]float64, []int) {
			rng := rand.New(rand.NewSource(101))
			rows := make([][]float64, n)
			sites := make([]int, n)
			for i := range rows {
				scale := 1.0
				if i%97 == 13 {
					scale = 1000 // ~10⁶× mass spike
				}
				rows[i] = gauss(rng, scale)
				sites[i] = (i / 23) % m
			}
			return rows, sites
		},
		"single-hot-site": func() ([][]float64, []int) {
			rng := rand.New(rand.NewSource(202))
			rows := make([][]float64, n)
			sites := make([]int, n)
			for i := range rows {
				rows[i] = gauss(rng, 1)
				if i%50 == 0 {
					sites[i] = 1 + (i/50)%(m-1) // a trickle elsewhere
				}
			}
			return rows, sites
		},
		"near-threshold": func() ([][]float64, []int) {
			// Rank-1 dominated rows of constant norm: one direction's σ²
			// climbs straight at the ship threshold, re-crossing it as fast
			// as the F̂ growth allows.
			rng := rand.New(rand.NewSource(303))
			base := gauss(rng, 1)
			matrix.Normalize(base)
			rows := make([][]float64, n)
			sites := make([]int, n)
			for i := range rows {
				row := make([]float64, d)
				copy(row, base)
				row[i%d] += 0.05 * rng.NormFloat64()
				rows[i] = row
				sites[i] = i % m
			}
			return rows, sites
		},
	}
}

// feedBlocks drives rows through ProcessRows in site runs, calling check
// after every block boundary.
func feedBlocks(t Tracker, rows [][]float64, sites []int, check func(fed int)) {
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && sites[end] == sites[start] {
			end++
		}
		t.ProcessRows(sites[start], rows[start:end])
		if check != nil {
			check(end)
		}
		start = end
	}
}

// assertCovarianceBound checks 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F for all x via
// the eigenvalues of AᵀA − BᵀB.
func assertCovarianceBound(t *testing.T, name string, fed int, exact, est *matrix.Sym, eps float64) {
	t.Helper()
	diff := exact.Clone()
	diff.SubSym(est)
	vals, _, err := matrix.EigSym(diff)
	if err != nil {
		t.Fatalf("%s after %d rows: eig of difference: %v", name, fed, err)
	}
	fro := exact.Trace()
	tol := 1e-9 * (1 + fro)
	lo, hi := vals[len(vals)-1], vals[0]
	if lo < -tol {
		t.Fatalf("%s after %d rows: estimate overshoots: min eig %v < 0 (tol %v)", name, fed, lo, tol)
	}
	if hi > eps*fro+tol {
		t.Fatalf("%s after %d rows: covariance error %v exceeds ε‖A‖²_F = %v", name, fed, hi, eps*fro)
	}
}

// TestFastModeCovarianceBound holds property 1 on every adversarial stream,
// checking at every 10th block boundary and at the end.
func TestFastModeCovarianceBound(t *testing.T) {
	const n, d, m = 3000, 16, 5
	const eps = 0.2
	builders := map[string]func() Tracker{
		"P1fast":      func() Tracker { return NewP1Fast(m, eps, d) },
		"P2fast":      func() Tracker { return NewP2Fast(m, eps, d) },
		"P2smallfast": func() Tracker { return NewP2SmallSpaceFast(m, eps, d) },
	}
	for streamName, build := range adversarialStreams(n, d, m) {
		rows, sites := build()
		exact := matrix.NewSym(d)
		prefix := 0
		for trackerName, mk := range builders {
			tr := mk()
			exact.Reset()
			prefix = 0
			blocks := 0
			feedBlocks(tr, rows, sites, func(fed int) {
				for ; prefix < fed; prefix++ {
					exact.AddOuter(1, rows[prefix])
				}
				blocks++
				if blocks%10 == 0 || fed == len(rows) {
					assertCovarianceBound(t, trackerName+"/"+streamName, fed, exact, tr.Gram(), eps)
				}
			})
		}
	}
}

// TestFastModeMessageFactor holds property 2: on identical block streams,
// P1 fast mode's tallies are byte-identical to exact mode's (the ship
// trigger reads only the scalar side-channel), and P2/P2small stay within
// the documented ship-early factor of 2.
func TestFastModeMessageFactor(t *testing.T) {
	const n, d, m = 3000, 16, 5
	const eps = 0.2
	pairs := []struct {
		name        string
		exact, fast func() Tracker
		factor      float64
	}{
		{"P1", func() Tracker { return NewP1(m, eps, d) },
			func() Tracker { return NewP1Fast(m, eps, d) }, 1},
		{"P2", func() Tracker { return NewP2(m, eps, d) },
			func() Tracker { return NewP2Fast(m, eps, d) }, 2},
		{"P2small", func() Tracker { return NewP2SmallSpace(m, eps, d) },
			func() Tracker { return NewP2SmallSpaceFast(m, eps, d) }, 2},
	}
	for streamName, build := range adversarialStreams(n, d, m) {
		rows, sites := build()
		for _, pc := range pairs {
			e, f := pc.exact(), pc.fast()
			feedBlocks(e, rows, sites, nil)
			feedBlocks(f, rows, sites, nil)
			es, fs := e.Stats(), f.Stats()
			if pc.factor == 1 {
				if es != fs {
					t.Errorf("%s/%s: fast tallies diverge from exact:\nexact: %v\nfast:  %v",
						pc.name, streamName, es, fs)
				}
				continue
			}
			if float64(fs.Total()) > pc.factor*float64(es.Total()) {
				t.Errorf("%s/%s: fast sent %d messages, more than %.0f× exact's %d",
					pc.name, streamName, fs.Total(), pc.factor, es.Total())
			}
		}
	}
}

// TestFastIngestSpeedupGuard holds fast-mode blocked ingest (1024-row
// per-site blocks) at ≥ 5× the rows/sec of exact per-row ingestion for both
// headline matrix protocols, each lap building its tracker;
// BenchmarkMatrixIngestModes reports the exact ratios.
func TestFastIngestSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	rows := gen.LowRankMatrix(gen.PAMAPLike(6_000))
	const m, d, block = 10, 44, 1024
	const eps = 0.1
	for _, pc := range []struct {
		name        string
		exact, fast func() Tracker
	}{
		{"P1", func() Tracker { return NewP1(m, eps, d) },
			func() Tracker { return NewP1Fast(m, eps, d) }},
		{"P2", func() Tracker { return NewP2(m, eps, d) },
			func() Tracker { return NewP2Fast(m, eps, d) }},
	} {
		perRow := func() {
			tr := pc.exact()
			for i := range rows {
				tr.ProcessRows(i%m, rows[i:i+1])
			}
		}
		blocked := func() {
			tr := pc.fast()
			for i, site := 0, 0; i < len(rows); i += block {
				tr.ProcessRows(site, rows[i:min(i+block, len(rows))])
				site = (site + 1) % m
			}
		}
		perfguard.Hold(t, perfguard.Row{Name: pc.name + " ingest",
			Ref: perfguard.Body{Name: "exact per-row", Run: perRow}, Fast: perfguard.Body{Name: "fast blocked", Run: blocked},
			Floor: 5, Laps: 5})
	}
}

// TestBatchDispatchNeverSlower guards the p2+batch regression: on the same
// stream and site sequence, exact-mode batch dispatch (ProcessRows over
// site runs) must not run slower than per-row dispatch (the per-row oracle
// step, rowstep_oracle_test.go). Batching removes per-call validation and
// adds nothing; the guard allows 1.5× slack, enough margin that only a
// genuine dispatch-overhead regression trips it.
func TestBatchDispatchNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	const m, d, n, runLen = 10, 44, 4000, 1024
	rows, sites := batchStream(21, n, d, m, runLen)

	perRow := func() {
		tr := NewP2(m, 0.1, d)
		feedPerRow(tr, rows, sites)
	}
	batch := func() {
		tr := NewP2(m, 0.1, d)
		for start := 0; start < len(rows); {
			end := start + 1
			for end < len(rows) && sites[end] == sites[start] {
				end++
			}
			tr.ProcessRows(sites[start], rows[start:end])
			start = end
		}
	}
	perfguard.Hold(t, perfguard.Row{Name: "exact-mode dispatch, batch ≤ 1.5× per-row",
		Ref: perfguard.Body{Name: "per-row", Run: perRow}, Fast: perfguard.Body{Name: "batch", Run: batch},
		Floor: 1 / 1.5, Laps: 5})
}

// TestFastSiteHotPathAllocs pins the steady-state allocation guarantee of
// the fast site paths: once the pooled scratch is warm, folding a block —
// including its scalar side-channel sends, block Gram update, and deferred
// decompositions — allocates nothing, mirroring the FD sketch's existing
// guarantee.
func TestFastSiteHotPathAllocs(t *testing.T) {
	const d, m, blockLen = 32, 4, 64
	rng := rand.New(rand.NewSource(55))
	block := make([][]float64, blockLen)
	for i := range block {
		block[i] = make([]float64, d)
		for j := range block[i] {
			block[i][j] = rng.NormFloat64()
		}
	}
	for _, pc := range []struct {
		name string
		mk   func() Tracker
	}{
		{"P2fast", func() Tracker { return NewP2Fast(m, 0.1, d) }},
		{"P1fast", func() Tracker { return NewP1Fast(m, 0.1, d) }},
	} {
		tr := pc.mk()
		site := 0
		feed := func() {
			tr.ProcessRows(site, block)
			site = (site + 1) % m
		}
		for i := 0; i < 8*m; i++ {
			feed() // warm the pooled scratch on every site
		}
		if avg := testing.AllocsPerRun(100, feed); avg > 0 {
			t.Errorf("%s: steady-state block ingest allocates %.2f allocs/op, want 0", pc.name, avg)
		}
	}
}
