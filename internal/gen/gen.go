// Package gen generates the evaluation workloads: Zipfian weighted item
// streams matching Section 6.1 of the paper, and synthetic matrix streams
// standing in for the PAMAP (low-rank) and YearPredictionMSD (high-rank)
// datasets (see DESIGN.md, "Substitutions"). A CSV loader is provided for
// running the harness on the real datasets when available.
package gen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// WeightedItem is one element of a weighted distributed stream.
type WeightedItem struct {
	Elem   uint64
	Weight float64
}

// ValidWeight reports whether w is a usable item weight: positive and
// finite. It is the one predicate every ingestion boundary shares — written
// so NaN fails it (NaN ≤ 0 is false, which a plain w ≤ 0 test lets
// through to poison the running total Ŵ).
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// ZipfConfig describes a Zipfian weighted stream. The paper's default:
// skew 2, 10⁷ items, weights uniform in [1, β] with β = 1000.
type ZipfConfig struct {
	N        int     // stream length
	Skew     float64 // Zipf exponent s > 1
	Universe int     // number of distinct elements (ranks)
	Beta     float64 // weight upper bound; weights ~ Unif[1, β]
	Seed     int64
}

// DefaultZipfConfig returns the paper's parameters scaled to n items.
func DefaultZipfConfig(n int) ZipfConfig {
	return ZipfConfig{N: n, Skew: 2.0, Universe: 1 << 20, Beta: 1000, Seed: 1}
}

// ZipfStream materializes a weighted Zipfian stream. Element ranks are drawn
// from the (truncated) Zipf distribution with the configured skew; weights
// are uniform in [1, β]. Deterministic given the seed.
func ZipfStream(cfg ZipfConfig) []WeightedItem {
	if cfg.N < 0 || cfg.Skew <= 1 || cfg.Universe < 1 || cfg.Beta < 1 {
		panic(fmt.Sprintf("gen: invalid ZipfConfig %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// rand.Zipf draws k with P(k) ∝ (v+k)^(−s); v=1 gives ranks 0..imax.
	z := rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Universe-1))
	out := make([]WeightedItem, cfg.N)
	for i := range out {
		out[i] = WeightedItem{
			Elem:   z.Uint64(),
			Weight: 1 + rng.Float64()*(cfg.Beta-1),
		}
	}
	return out
}

// TotalWeight sums the weights of a stream.
//
//distlint:unreachable-ok test helper: the gen, hh and node tests
func TotalWeight(items []WeightedItem) float64 {
	var w float64
	for _, it := range items {
		w += it.Weight
	}
	return w
}

// ExactFrequencies replays the stream into an exact per-element weight map.
func ExactFrequencies(items []WeightedItem) map[uint64]float64 {
	f := make(map[uint64]float64)
	for _, it := range items {
		f[it.Elem] += it.Weight
	}
	return f
}

// MatrixConfig describes a synthetic matrix stream of N rows in d dimensions
// whose covariance spectrum decays with the given profile. Row squared norms
// are clamped to [1, β] as the protocols' weight model requires.
type MatrixConfig struct {
	N, D int
	// EffectiveRank controls where the spectrum knee sits for the low-rank
	// profile; ignored by the high-rank profile.
	EffectiveRank int
	// NoiseStd is the magnitude of the isotropic residual added to low-rank
	// rows (relative to signal scale 1).
	NoiseStd float64
	// Beta bounds row squared norms.
	Beta float64
	Seed int64
}

// PAMAPLike returns the low-rank profile standing in for the PAMAP dataset:
// d=44 columns, a sharp spectrum knee at rank ~10 and a tiny noise floor, so
// rank-30 reconstruction error is minuscule (Table 1's PAMAP column).
func PAMAPLike(n int) MatrixConfig {
	return MatrixConfig{N: n, D: 44, EffectiveRank: 10, NoiseStd: 1e-3, Beta: 1000, Seed: 2}
}

// MSDLike returns the high-rank profile standing in for YearPredictionMSD:
// d=90 columns with a slowly decaying power-law spectrum, so even rank-50
// reconstruction leaves visible error (Table 1's MSD column).
func MSDLike(n int) MatrixConfig {
	return MatrixConfig{N: n, D: 90, EffectiveRank: 0, NoiseStd: 0, Beta: 1000, Seed: 3}
}

// LowRankMatrix generates rows x = Σ_k σ_k·g_k·v_k + noise with an
// orthonormal factor V (fixed per seed), geometric spectrum σ_k = 2^{−k/2}
// for k = 0 … EffectiveRank−1, and isotropic Gaussian noise. Rows are rescaled to
// squared norm in [1, β].
func LowRankMatrix(cfg MatrixConfig) [][]float64 {
	if cfg.EffectiveRank < 1 || cfg.EffectiveRank > cfg.D {
		panic(fmt.Sprintf("gen: EffectiveRank %d out of range for d=%d", cfg.EffectiveRank, cfg.D))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	basis := randomOrthonormal(rng, cfg.D, cfg.EffectiveRank)
	sig := make([]float64, cfg.EffectiveRank)
	for k := range sig {
		sig[k] = math.Pow(2, -float64(k)/2)
	}
	rows := make([][]float64, cfg.N)
	for i := range rows {
		row := make([]float64, cfg.D)
		for k := 0; k < cfg.EffectiveRank; k++ {
			c := sig[k] * rng.NormFloat64()
			for j := 0; j < cfg.D; j++ {
				row[j] += c * basis[k][j]
			}
		}
		if cfg.NoiseStd > 0 {
			for j := range row {
				row[j] += cfg.NoiseStd * rng.NormFloat64()
			}
		}
		clampRowNorm(row, cfg.Beta, rng)
		rows[i] = row
	}
	return rows
}

// HighRankMatrix generates rows z with independent latent coordinates
// scaled by a power-law spectrum σ_j = j^{−1/2} and then rotated by a fixed
// random orthonormal basis Q (row = Q·z), giving a full-rank covariance
// whose tail carries substantial mass and whose principal directions are
// NOT axis-aligned — like real feature data, and essential for the P4
// negative-result experiments (a diagonal-only approximation must fail).
func HighRankMatrix(cfg MatrixConfig) [][]float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sig := make([]float64, cfg.D)
	for j := range sig {
		sig[j] = 1 / math.Sqrt(float64(j+1))
	}
	basis := randomOrthonormal(rng, cfg.D, cfg.D)
	z := make([]float64, cfg.D)
	rows := make([][]float64, cfg.N)
	for i := range rows {
		row := make([]float64, cfg.D)
		for j := range z {
			z[j] = sig[j] * rng.NormFloat64()
		}
		for j, c := range z {
			if c == 0 {
				continue
			}
			b := basis[j]
			for k := range row {
				row[k] += c * b[k]
			}
		}
		clampRowNorm(row, cfg.Beta, rng)
		rows[i] = row
	}
	return rows
}

// clampRowNorm rescales row so its squared norm lies in [1, beta].
// A numerically zero row is replaced by a random unit vector.
func clampRowNorm(row []float64, beta float64, rng *rand.Rand) {
	nsq := 0.0
	for _, v := range row {
		nsq += v * v
	}
	if nsq < 1e-20 {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		nsq = 0
		for _, v := range row {
			nsq += v * v
		}
	}
	switch {
	case nsq < 1:
		s := 1 / math.Sqrt(nsq)
		for j := range row {
			row[j] *= s
		}
	case nsq > beta:
		s := math.Sqrt(beta / nsq)
		for j := range row {
			row[j] *= s
		}
	}
}

// randomOrthonormal returns k orthonormal vectors in R^d via Gram–Schmidt on
// Gaussian draws.
func randomOrthonormal(rng *rand.Rand, d, k int) [][]float64 {
	if k > d {
		panic(fmt.Sprintf("gen: cannot build %d orthonormal vectors in R^%d", k, d))
	}
	out := make([][]float64, 0, k)
	for len(out) < k {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, u := range out {
			var dot float64
			for j := range v {
				dot += v[j] * u[j]
			}
			for j := range v {
				v[j] -= dot * u[j]
			}
		}
		var nsq float64
		for _, x := range v {
			nsq += x * x
		}
		if nsq < 1e-12 {
			continue // improbable degenerate draw; retry
		}
		inv := 1 / math.Sqrt(nsq)
		for j := range v {
			v[j] *= inv
		}
		out = append(out, v)
	}
	return out
}

// ReadCSVMatrix parses numeric CSV rows (optionally skipping a header and a
// set of columns) so the harness can run on the paper's real datasets when a
// user supplies them. Non-numeric rows are skipped with a count returned.
func ReadCSVMatrix(r io.Reader, skipHeader bool, dropCols map[int]bool) (rows [][]float64, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	first := true
	width := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first && skipHeader {
			first = false
			continue
		}
		first = false
		fields := strings.Split(line, ",")
		row := make([]float64, 0, len(fields))
		ok := true
		for i, f := range fields {
			if dropCols[i] {
				continue
			}
			v, perr := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
			row = append(row, v)
		}
		if !ok {
			skipped++
			continue
		}
		if width == -1 {
			width = len(row)
		}
		if len(row) != width {
			skipped++
			continue
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("gen: reading CSV: %w", err)
	}
	return rows, skipped, nil
}
