package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Ablations for the design choices DESIGN.md calls out. Each is both a
// correctness test (the guarantee must hold at every knob setting) and a
// benchmark quantifying the trade-off.

// TestP2ShipFractionAblation verifies the guarantee holds across ship
// fractions and that the intended trade-off materializes: shipping earlier
// (smaller fraction) costs more messages but fewer decompositions.
func TestP2ShipFractionAblation(t *testing.T) {
	const m, eps = 5, 0.1
	rows := lowRankRows(4000)
	type outcome struct {
		msgs, decomps int64
	}
	var results []outcome
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		p := NewP2ShipFraction(m, eps, 44, frac)
		exact := Run(p, rows, stream.NewUniformRandom(m, 3))
		e, err := metrics.CovarianceError(exact, p.Gram())
		if err != nil {
			t.Fatal(err)
		}
		if e > eps {
			t.Fatalf("shipFrac=%v: error %v exceeds ε", frac, e)
		}
		results = append(results, outcome{p.Stats().Total(), p.Decompositions()})
	}
	// Messages decrease (weakly) as the fraction grows toward 1.
	if results[0].msgs < results[2].msgs {
		t.Fatalf("expected msgs(frac=0.25) ≥ msgs(frac=1.0): %+v", results)
	}
	// Decompositions increase (weakly) as the fraction grows toward 1
	// (sites hit the threshold again sooner when they ship less).
	if results[0].decomps > results[2].decomps {
		t.Fatalf("expected decomps(frac=0.25) ≤ decomps(frac=1.0): %+v", results)
	}
}

// BenchmarkAblationP2ShipFraction quantifies the message/decomposition
// trade-off of the early-shipping rule.
func BenchmarkAblationP2ShipFraction(b *testing.B) {
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		b.Run(labelFrac(frac), func(b *testing.B) {
			var msgs, dec int64
			for i := 0; i < b.N; i++ {
				p := NewP2ShipFraction(10, 0.05, 44, frac)
				Run(p, benchRows, stream.NewUniformRandom(10, 3))
				msgs, dec = p.Stats().Total(), p.Decompositions()
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(dec), "decomps")
		})
	}
}

// BenchmarkAblationP3SampleSize quantifies error vs communication as the
// P3 coordinator sample size moves around the paper's recommendation.
func BenchmarkAblationP3SampleSize(b *testing.B) {
	for _, s := range []int{64, 256, 1024} {
		b.Run(labelInt(s), func(b *testing.B) {
			var msgs int64
			var errV float64
			for i := 0; i < b.N; i++ {
				p := NewP3Size(10, 0.1, 44, s, 4)
				exact := Run(p, benchRows, stream.NewUniformRandom(10, 5))
				e, err := metrics.CovarianceError(exact, p.Gram())
				if err != nil {
					b.Fatal(err)
				}
				msgs, errV = p.Stats().Total(), e
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(errV, "err")
		})
	}
}

func labelFrac(f float64) string {
	switch f {
	case 0.25:
		return "frac=0.25"
	case 0.5:
		return "frac=0.50"
	default:
		return "frac=1.00"
	}
}

func labelInt(s int) string {
	switch s {
	case 64:
		return "s=64"
	case 256:
		return "s=256"
	default:
		return "s=1024"
	}
}

// TestDecompositionShipRate counts, on the end-to-end benchmark's own
// inputs (bench/inputs.go: gen.PAMAPLike at seed 1 cut into a pool of 256
// blocks, block b arriving at site b%2 + 2·((b/2)%5), the pool cycled), how
// many of fast P2's decompositions ship nothing. ISSUE 21 read 106/602
// = 0.176 (http-json's 256-row batches), 179/1048 = 0.171 (wire-stream's
// 64-row frames) and 318/2314 = 0.137 (sharded-query's 64-row batches over
// 4 shards). On those shares a values-only first pass in front of the full
// decomposition (tred2/tql2 on d and e alone, ROADMAP item 6(i)) was a net
// loss: 79 µs at d = 44, paid on top by the 82–86 % that ship. The ship
// step now runs one pass instead (matrix.EigAbove: the reduction and the
// eigenvalues, then vectors only for what ships), so an idle decomposition
// costs what that first pass did and a shipping one less than the full
// decomposition, whatever the share. The 0.30 below only keeps the
// recorded readings honest.
func TestDecompositionShipRate(t *testing.T) {
	const poolBlocks, m, d, eps = 256, 10, 44, 0.1
	for _, c := range []struct {
		name                  string
		batch, blocks, shards int
	}{
		{"http-json", 256, 3_000, 0},
		{"wire-stream", 64, 40_000, 0},
		{"sharded-query", 64, 10_000, 4},
	} {
		cfg := gen.PAMAPLike(poolBlocks * c.batch)
		cfg.Seed = 1
		rows := gen.LowRankMatrix(cfg)
		var tr Tracker
		var shards []*P2
		build := func(int) Tracker {
			p := NewP2Fast(m, eps, d)
			shards = append(shards, p)
			return p
		}
		if c.shards > 0 {
			st := NewShardedTracker(c.shards, build)
			t.Cleanup(st.Close)
			tr = st
		} else {
			tr = build(0).(*P2)
		}
		for k := 0; k < c.blocks; k++ {
			b := k % poolBlocks
			tr.ProcessRows(b%2+2*((b/2)%5), rows[b*c.batch:(b+1)*c.batch])
		}
		if st, ok := tr.(*ShardedTracker); ok {
			st.Flush()
		}
		var total, idle int64
		for _, p := range shards {
			total += p.Decompositions()
			idle += p.DecompositionsIdle()
		}
		ratio := float64(idle) / float64(total)
		t.Logf("%s: %d of %d decompositions shipped nothing (%.3f)", c.name, idle, total, ratio)
		if total == 0 || ratio >= 0.30 {
			t.Errorf("%s: idle share %.3f of %d decompositions, want under 0.30 (see the doc comment before acting on it)", c.name, ratio, total)
		}
	}
}
