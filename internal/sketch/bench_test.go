package sketch

import (
	"math/rand"
	"testing"
)

func BenchmarkMGUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randStream(rng, 100_000, 5000, 100)
	m := NewMG(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s[i%len(s)]
		m.Update(it.Elem, it.Weight)
	}
}

func BenchmarkSpaceSavingUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := randStream(rng, 100_000, 5000, 100)
	ss := NewSpaceSaving(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s[i%len(s)]
		ss.Update(it.Elem, it.Weight)
	}
}

// BenchmarkFDAppend measures the amortized per-row cost of the batched FD
// sketch in its shrinking regime (ℓ < d).
func BenchmarkFDAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const d = 44
	rows := make([][]float64, 4096)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	fd := NewFD(20, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.Append(rows[i%len(rows)])
	}
}

// BenchmarkFDAppendExact measures the per-row cost in exact mode (ℓ ≥ d):
// a pure rank-1 Gram update.
func BenchmarkFDAppendExact(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const d = 44
	row := make([]float64, d)
	for j := range row {
		row[j] = rng.NormFloat64()
	}
	fd := NewFD(d, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.Append(row)
	}
}

func BenchmarkFDMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const d = 44
	mk := func() *FD {
		f := NewFD(20, d)
		for i := 0; i < 200; i++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			f.Append(row)
		}
		return f
	}
	a, c := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}

// BenchmarkFDIngest is the blocked-vs-unblocked matrix ingest comparison
// behind the repo's ≥3× acceptance bar: "unblocked" is the row-at-a-time
// baseline (block 1: one factorize-and-shrink per row once the sketch
// saturates), "blocked" the default 2ℓ buffer — fed per row (Append) and
// in whole batches (AppendRows).
func BenchmarkFDIngest(b *testing.B) {
	const d, ell, slab = 64, 16, 256
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 4096)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	perRow := func(fd *FD) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fd.Append(rows[i%len(rows)])
			}
			reportRowsPerSec(b)
		}
	}
	b.Run("unblocked-row-at-a-time", perRow(NewFDBuffered(ell, d, 1)))
	b.Run("blocked-append", perRow(NewFD(ell, d)))
	b.Run("blocked-batch", func(b *testing.B) {
		fd := NewFD(ell, d)
		b.ReportAllocs()
		for n := 0; n < b.N; n += slab {
			k := slab
			if n+k > b.N {
				k = b.N - n
			}
			fd.AppendRows(rows[:k])
		}
		reportRowsPerSec(b)
	})
}

// reportRowsPerSec derives the headline rows/sec metric from the measured
// per-op time.
func reportRowsPerSec(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "rows/s")
	}
}
