package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// Message-count regression harness for the one ingest method: every matrix
// protocol fed the same seeded stream through ProcessRows — one row at a
// time, and with batches cut at arbitrary boundaries — must report
// byte-identical stream.Accountant up/down tallies to its per-row oracle
// (rowstep_oracle_test.go), and (the protocols being deterministic state
// machines, the samplers consuming their rng in row order) an identical
// coordinator estimate.

// batchStream builds a seeded stream with blocky site runs, so the batch
// path sees real multi-row blocks rather than single-row runs.
func batchStream(seed int64, n, d, m, runLen int) (rows [][]float64, sites []int) {
	rng := rand.New(rand.NewSource(seed))
	rows = make([][]float64, n)
	sites = make([]int, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		// Rows with exactly zero norm are excluded by the generator
		// (NormFloat64 never returns all-zeros in practice; guard anyway).
		if matrix.NormSq(row) == 0 {
			row[0] = 1
		}
		rows[i] = row
		sites[i] = (i / runLen) % m
	}
	return rows, sites
}

// feedPerRow drives the per-row reference: the tracker's oracle step where
// it has one, else one-row batches.
func feedPerRow(t Tracker, rows [][]float64, sites []int) {
	o, ok := t.(rowOracle)
	if !ok {
		feedOneRow(t, rows, sites)
		return
	}
	for i, row := range rows {
		o.oracleProcessRow(sites[i], row)
	}
}

// feedOneRow drives ProcessRows one row at a time: exact mode's per-row
// step.
func feedOneRow(t Tracker, rows [][]float64, sites []int) {
	for i := range rows {
		t.ProcessRows(sites[i], rows[i:i+1])
	}
}

// feedBatched drives the blocked path: site runs are split further into
// random-length sub-batches so multi-call batching is exercised too.
func feedBatched(t Tracker, rows [][]float64, sites []int, splitSeed int64) {
	rng := rand.New(rand.NewSource(splitSeed))
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && sites[end] == sites[start] {
			end++
		}
		for sub := start; sub < end; {
			take := 1 + rng.Intn(end-sub)
			t.ProcessRows(sites[sub], rows[sub:sub+take])
			sub += take
		}
		start = end
	}
}

// exactModeBuilders are the trackers whose ProcessRows must stay
// byte-identical to per-row ingestion (the exact-mode oracle).
func exactModeBuilders(m, d int) []struct {
	name  string
	build func() Tracker
} {
	return []struct {
		name  string
		build func() Tracker
	}{
		{"P1", func() Tracker { return NewP1(m, 0.15, d) }},
		{"P2", func() Tracker { return NewP2(m, 0.15, d) }},
		{"P2small", func() Tracker { return NewP2SmallSpace(m, 0.3, d) }},
		{"P3", func() Tracker { return NewP3(m, 0.2, d, 42) }},
		{"P3wr", func() Tracker { return NewP3WR(m, 0.2, d, 42) }},
		{"P4", func() Tracker { return NewP4(m, 0.2, d, 42) }},
		{"FD", func() Tracker { return NewNaiveFD(m, 10, d) }},
		{"SVD", func() Tracker { return NewNaiveSVD(m, d) }},
		{"Windowed(P2)", func() Tracker {
			return NewWindowedTracker(600, func() Tracker { return NewP2(m, 0.15, d) })
		}},
	}
}

// assertByteIdentical feeds the same stream to fresh instances per row
// (feedPerRow), one row at a time and batched (at the given split seed),
// and requires bit-equal state.
func assertByteIdentical(t *testing.T, build func() Tracker, rows [][]float64, sites []int, splitSeed int64) {
	t.Helper()
	perRow := build()
	feedPerRow(perRow, rows, sites)
	oneRow := build()
	feedOneRow(oneRow, rows, sites)
	batched := build()
	feedBatched(batched, rows, sites, splitSeed)

	for _, got := range []struct {
		feed string
		tr   Tracker
	}{{"one-row", oneRow}, {"batched", batched}} {
		if a, b := perRow.Stats(), got.tr.Stats(); a != b {
			t.Fatalf("%s: message tallies diverge:\nper-row: %v\n%s: %v", got.feed, a, got.feed, b)
		}
		if a, b := perRow.EstimateFrobenius(), got.tr.EstimateFrobenius(); a != b {
			t.Fatalf("%s: Frobenius estimates diverge: %v vs %v", got.feed, a, b)
		}
		diff := perRow.Gram()
		diff.SubSym(got.tr.Gram())
		if diff.MaxAbs() != 0 {
			t.Fatalf("%s: coordinator Grams diverge by %v", got.feed, diff.MaxAbs())
		}
	}
}

func TestBatchIngestionMatchesPerRowMessageCounts(t *testing.T) {
	const m, d, n = 5, 12, 4000
	rows, sites := batchStream(11, n, d, m, 37)
	for _, bc := range exactModeBuilders(m, d) {
		t.Run(bc.name, func(t *testing.T) {
			assertByteIdentical(t, bc.build, rows, sites, 77)
		})
	}
}

// TestExactModeByteIdentityAdversarial is the cross-mode harness's exact
// half: on the same adversarial streams the fast-path property tests use
// (spiky mass, a single hot site, near-threshold hovering — see
// fastpath_test.go), exact-mode ingest must stay byte-identical to the
// per-row oracle for every protocol. The fast half of the harness —
// bound preservation and message factors on these streams — lives in
// TestFastModeCovarianceBound and TestFastModeMessageFactor.
func TestExactModeByteIdentityAdversarial(t *testing.T) {
	const n, d, m = 3000, 16, 5
	for streamName, buildStream := range adversarialStreams(n, d, m) {
		rows, sites := buildStream()
		for _, bc := range exactModeBuilders(m, d) {
			t.Run(streamName+"/"+bc.name, func(t *testing.T) {
				assertByteIdentical(t, bc.build, rows, sites, 99)
			})
		}
	}
}
