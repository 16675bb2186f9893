package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// benchRows builds a reusable low-rank row stream once.
var benchRows = gen.LowRankMatrix(gen.PAMAPLike(8_000))

// benchTracker measures full-stream throughput of one tracker and reports
// its message count and allocation profile.
func benchTracker(b *testing.B, build func() Tracker) {
	b.Helper()
	b.ReportAllocs()
	var msgs int64
	for i := 0; i < b.N; i++ {
		t := build()
		Run(t, benchRows, stream.NewUniformRandom(10, 3))
		msgs = t.Stats().Total()
	}
	b.ReportMetric(float64(msgs), "msgs")
	b.ReportMetric(float64(len(benchRows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkMatrixIngestModes compares exact and fast ingest on identical
// per-site block feeds for the headline protocols; TestFastIngestSpeedupGuard
// holds fast at ≥ 5× exact.
func BenchmarkMatrixIngestModes(b *testing.B) {
	const m, d, block = 10, 44, 1024
	builders := []struct {
		name  string
		build func() Tracker
	}{
		{"p1-exact", func() Tracker { return NewP1(m, 0.1, d) }},
		{"p1-fast", func() Tracker { return NewP1Fast(m, 0.1, d) }},
		{"p2-exact", func() Tracker { return NewP2(m, 0.1, d) }},
		{"p2-fast", func() Tracker { return NewP2Fast(m, 0.1, d) }},
	}
	for _, bc := range builders {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				t := bc.build()
				for j, site := 0, 0; j < len(benchRows); j += block {
					end := j + block
					if end > len(benchRows) {
						end = len(benchRows)
					}
					t.ProcessRows(site, benchRows[j:end])
					site = (site + 1) % m
				}
				msgs = t.Stats().Total()
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(len(benchRows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

func BenchmarkMatrixP1(b *testing.B) {
	benchTracker(b, func() Tracker { return NewP1(10, 0.1, 44) })
}

func BenchmarkMatrixP2(b *testing.B) {
	benchTracker(b, func() Tracker { return NewP2(10, 0.1, 44) })
}

func BenchmarkMatrixP3(b *testing.B) {
	benchTracker(b, func() Tracker { return NewP3(10, 0.1, 44, 1) })
}

func BenchmarkMatrixP4(b *testing.B) {
	benchTracker(b, func() Tracker { return NewP4(10, 0.1, 44, 1) })
}

func BenchmarkNaiveFD(b *testing.B) {
	benchTracker(b, func() Tracker { return NewNaiveFD(10, 30, 44) })
}

// BenchmarkMatrixP2SmallEps exercises the degenerate small-ε regime where
// the protocol approaches send-everything (the sole-row fast path).
func BenchmarkMatrixP2SmallEps(b *testing.B) {
	benchTracker(b, func() Tracker { return NewP2(10, 0.005, 44) })
}
