package core

import (
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/sample"
	"repro/internal/stream"
)

// P3 is the row-sampling protocol of Section 5.3: the heavy-hitters
// priority-sampling protocol applied with weight w_i = ‖a_i‖², carrying the
// row itself as the sample payload. The coordinator "stacks" the sampled
// rows, rescaling rows with w_i < ρ̂ up to squared norm ρ̂ so the estimate
// is unbiased.
//
// Guarantee (Theorem 5): |‖Ax‖² − ‖Bx‖²| ≤ ε‖A‖²_F with probability
// ≥ 1 − 1/s, for s = Θ((1/ε²)·log(1/ε)) sampled rows.
// Communication: O((m + s)·log(βN/s)) messages.
type P3 struct {
	m, d int
	eps  float64
	acct *stream.Accountant
	rng  *rand.Rand

	coord *sample.PrioritySampler
	tau   float64
	fro   float64 // coordinator-side unbiased estimate comes from the sample
}

// NewP3 builds the without-replacement sampling tracker with the paper's
// sample size for ε.
func NewP3(m int, eps float64, d int, seed int64) *P3 {
	return NewP3Size(m, eps, d, sample.RecommendedSampleSize(eps), seed)
}

// NewP3Size builds P3 with an explicit sample size s.
func NewP3Size(m int, eps float64, d, s int, seed int64) *P3 {
	validateParams(m, eps, d)
	return &P3{
		m:     m,
		d:     d,
		eps:   eps,
		acct:  stream.NewAccountant(m),
		rng:   rand.New(rand.NewSource(seed)),
		coord: sample.NewPrioritySampler(s),
		tau:   1,
	}
}

// Name implements Tracker.
func (p *P3) Name() string { return "P3" }

// Dim implements Tracker.
func (p *P3) Dim() int { return p.d }

// Eps implements Tracker.
func (p *P3) Eps() float64 { return p.eps }

// ProcessRows implements Tracker: the per-row sampling loop. The priority
// draws consume the rng in row order, so sample contents and message
// tallies do not depend on how the stream is cut into batches.
func (p *P3) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.d)
	for _, row := range rows {
		p.processRow(row)
	}
}

func (p *P3) processRow(row []float64) {
	w := matrix.NormSq(row)
	rho := sample.Priority(w, p.rng)
	if rho < p.tau {
		return
	}
	stored := make([]float64, p.d)
	copy(stored, row)
	p.acct.SendUp(1) // one row message
	if newRound := p.coord.Offer(sample.Prioritized{Weight: w, Priority: rho, Payload: stored}); newRound {
		p.tau = p.coord.Threshold()
		p.acct.Broadcast(1)
	}
}

// Gram implements Tracker: the stacked-and-rescaled sample rows' Gram, the
// P3 coordinator's estimate of BᵀB with the without-replacement
// reweighting of Section 5.3.
func (p *P3) Gram() *matrix.Sym {
	items, _ := p.coord.Sample()
	g := matrix.NewSym(p.d)
	for _, e := range items {
		// e.Weight is the adjusted w̄ = max(w, ρ̂); scale the row's outer
		// product so its squared norm equals w̄.
		orig := matrix.NormSq(e.Payload)
		if orig <= 0 {
			continue
		}
		g.AddOuter(e.Weight/orig, e.Payload)
	}
	return g
}

// Sites implements SiteCounter.
func (p *P3) Sites() int { return p.m }

// EstimateFrobenius implements Tracker.
func (p *P3) EstimateFrobenius() float64 { return p.coord.EstimateTotal() }

// Stats implements Tracker.
func (p *P3) Stats() stream.Stats { return p.acct.Stats() }

// P3WR is the with-replacement variant (Section 4.3.1 applied to rows):
// s independent samplers whose retained rows are all rescaled to the uniform
// squared norm Ŵ/s. The paper (Table 1) shows it is dominated by P3 in both
// error and message count; it is retained for that comparison.
type P3WR struct {
	m, d int
	eps  float64
	acct *stream.Accountant
	rng  *rand.Rand

	coord *sample.WRSampler
	tau   float64
}

// NewP3WR builds the with-replacement tracker with the paper's sample size.
func NewP3WR(m int, eps float64, d int, seed int64) *P3WR {
	return NewP3WRSize(m, eps, d, sample.RecommendedSampleSize(eps), seed)
}

// NewP3WRSize builds P3WR with an explicit sampler count s.
func NewP3WRSize(m int, eps float64, d, s int, seed int64) *P3WR {
	validateParams(m, eps, d)
	return &P3WR{
		m:     m,
		d:     d,
		eps:   eps,
		acct:  stream.NewAccountant(m),
		rng:   rand.New(rand.NewSource(seed)),
		coord: sample.NewWRSampler(s),
		tau:   1,
	}
}

// Name implements Tracker.
func (p *P3WR) Name() string { return "P3wr" }

// Dim implements Tracker.
func (p *P3WR) Dim() int { return p.d }

// Eps implements Tracker.
func (p *P3WR) Eps() float64 { return p.eps }

// ProcessRows implements Tracker; see P3.ProcessRows.
func (p *P3WR) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.m)
	validateRows(rows, p.d)
	for _, row := range rows {
		p.processRow(row)
	}
}

func (p *P3WR) processRow(row []float64) {
	w := matrix.NormSq(row)
	idx, pri := sample.SitePriorities(w, p.tau, p.coord.Samplers(), p.rng)
	if len(idx) == 0 {
		return
	}
	stored := make([]float64, p.d)
	copy(stored, row)
	// One message carrying the row plus the sampler index list.
	p.acct.SendUpN(1, 1+len(idx))
	for t := range idx {
		if newRound := p.coord.Offer(idx[t], sample.Prioritized{Weight: w, Priority: pri[t], Payload: stored}); newRound {
			p.tau = p.coord.Threshold()
			p.acct.Broadcast(1)
		}
	}
}

// Gram implements Tracker.
func (p *P3WR) Gram() *matrix.Sym {
	g := matrix.NewSym(p.d)
	for _, e := range p.coord.Sample() {
		orig := matrix.NormSq(e.Payload)
		if orig <= 0 {
			continue
		}
		// Rescale the row to the uniform adjusted squared norm Ŵ/s.
		g.AddOuter(e.Weight/orig, e.Payload)
	}
	return g
}

// Sites implements SiteCounter.
func (p *P3WR) Sites() int { return p.m }

// EstimateFrobenius implements Tracker.
func (p *P3WR) EstimateFrobenius() float64 { return p.coord.EstimateTotal() }

// Stats implements Tracker.
func (p *P3WR) Stats() stream.Stats { return p.acct.Stats() }

// Compile-time checks against accidental interface drift.
var (
	_ Tracker = (*P1)(nil)
	_ Tracker = (*P2)(nil)
	_ Tracker = (*P3)(nil)
	_ Tracker = (*P3WR)(nil)
)
