package distmat_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its experiment at Quick scale (the shapes survive) and
// reports, beyond ns/op, the headline quantities the paper plots — message
// counts and measured errors — as custom benchmark metrics.
//
//	go test -bench=. -benchmem
//
// `go run ./cmd/experiments` runs the same harness at default scale and
// prints the numbers.

import (
	"strconv"
	"testing"

	"repro/internal/experiments"
)

// benchConfig is the shared reduced-scale configuration.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.HHItems = 50_000
	cfg.MatRows = 3_000
	cfg.Sites = 10
	cfg.SiteList = []int{5, 10, 20}
	return cfg
}

// reportCell parses a table cell and reports it as a benchmark metric.
func reportCell(b *testing.B, t *experiments.Table, row, col int, unit string) {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("table %s has no cell (%d,%d)", t.ID, row, col)
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell %q: %v", t.Rows[row][col], err)
	}
	b.ReportMetric(v, unit)
}

func findTable(b *testing.B, tables []experiments.Table, id string) *experiments.Table {
	b.Helper()
	for i := range tables {
		if tables[i].ID == id {
			return &tables[i]
		}
	}
	b.Fatalf("table %s missing", id)
	return nil
}

// BenchmarkFig1HeavyHitters regenerates Figure 1 (panels a–f): the weighted
// heavy hitters protocols on the Zipf stream.
func BenchmarkFig1HeavyHitters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		tables := r.Fig1()
		if i == b.N-1 {
			// P2's message count and error at the middle ε.
			msgs := findTable(b, tables, "Fig 1(d)")
			reportCell(b, msgs, len(msgs.Rows)/2, 2, "P2-msgs")
			errs := findTable(b, tables, "Fig 1(c)")
			reportCell(b, errs, len(errs.Rows)/2, 2, "P2-err")
		}
	}
}

// BenchmarkTable1Matrix regenerates Table 1: all matrix methods on both
// datasets.
func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		t := r.Table1()
		if i == b.N-1 {
			reportCell(b, &t, 1, 1, "P2-pamap-err") // row P2, PAMAP err
			reportCell(b, &t, 1, 2, "P2-pamap-msgs")
		}
	}
}

// BenchmarkFig2PAMAP regenerates Figure 2 (the low-rank dataset panels).
func BenchmarkFig2PAMAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		tables := r.Fig2()
		if i == b.N-1 {
			ta := findTable(b, tables, "Fig 2(a)")
			reportCell(b, ta, 0, 2, "P2-err-smallest-eps")
		}
	}
}

// BenchmarkFig3MSD regenerates Figure 3 (the high-rank dataset panels).
func BenchmarkFig3MSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		tables := r.Fig3()
		if i == b.N-1 {
			ta := findTable(b, tables, "Fig 3(a)")
			reportCell(b, ta, 0, 2, "P2-err-smallest-eps")
		}
	}
}

// BenchmarkFig4Tradeoff regenerates Figure 4 (messages vs error on both
// datasets; derived from the same sweeps as Figs 2–3).
func BenchmarkFig4Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		tables := r.Fig4()
		if len(tables) != 2 {
			b.Fatal("Fig4 incomplete")
		}
	}
}

// BenchmarkFig6P4PAMAP regenerates Figure 6 (P4's failure, low-rank data).
func BenchmarkFig6P4PAMAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		tables := r.Fig6()
		if i == b.N-1 {
			ta := findTable(b, tables, "Fig 6(a)")
			reportCell(b, ta, 0, 4, "P4-err-smallest-eps")
		}
	}
}

// BenchmarkFig7P4MSD regenerates Figure 7 (P4's failure, high-rank data).
func BenchmarkFig7P4MSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		tables := r.Fig7()
		if i == b.N-1 {
			ta := findTable(b, tables, "Fig 7(a)")
			reportCell(b, ta, 0, 4, "P4-err-smallest-eps")
		}
	}
}
