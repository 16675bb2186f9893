package quantile

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/stream"
)

// Tracker continuously maintains ε-approximate weighted quantiles of a
// distributed stream at the coordinator, using the paper's P1 skeleton
// (batched mergeable summaries with an estimate side-channel): each site
// runs a q-digest with error ε/2 and ships it when its unsent weight
// reaches (ε/2m)·Ŵ; the coordinator merges and re-broadcasts Ŵ when its
// tally grows past (1+ε/2)·Ŵ.
//
// Guarantee: every quantile query errs by at most εW in rank — the merge
// error (≤ εW/2) plus the unshipped site weight (≤ εW/2), exactly the
// Lemma 2 argument with q-digest in place of Misra–Gries.
// Communication: O((m/ε²)·log(βN)·log U) scalar messages.
type Tracker struct {
	m    int
	eps  float64
	bits uint
	rule stream.P1 // per-site weight, the coordinator tally, Ŵ and the message tally

	sites  []*QDigest
	merged *QDigest // the coordinator's digest
}

// CheckParams reports whether (m, eps, bits) are valid tracker parameters.
func CheckParams(m int, eps float64, bits uint) error {
	if m < 1 {
		return fmt.Errorf("quantile: need m ≥ 1 sites, got %d", m)
	}
	return CheckDigestParams(bits, eps)
}

// NewTracker builds the protocol for m sites with rank error ε over the
// value universe [0, 2^bits).
func NewTracker(m int, eps float64, bits uint) *Tracker {
	if err := CheckParams(m, eps, bits); err != nil {
		// Panic with the error value itself so a recovering caller keeps
		// the wrapped chain (errors.Is still works on the recovered value).
		panic(err)
	}
	t := &Tracker{m: m, eps: eps, bits: bits, rule: stream.NewP1(m, eps), sites: make([]*QDigest, m), merged: NewQDigest(bits, eps/2)}
	for i := range t.sites {
		t.sites[i] = NewQDigest(bits, eps/2)
	}
	return t
}

// Eps returns the rank error parameter.
func (t *Tracker) Eps() float64 { return t.eps }

// Process delivers one weighted value to a site. A shipped digest goes up
// compressed, one message per node, the weight scalar piggybacked.
func (t *Tracker) Process(site int, value uint64, w float64) {
	if site < 0 || site >= t.m {
		panic(fmt.Sprintf("quantile: site %d out of range [0,%d)", site, t.m))
	}
	if !gen.ValidWeight(w) {
		panic(fmt.Sprintf("quantile: need positive finite weight, got %v", w))
	}
	digest := t.sites[site]
	digest.Update(value, w)
	if t.rule.Add(site, w) {
		digest.Compress()
		t.rule.Ship(site, digest.Size())
		t.merged.Merge(digest)
		digest.Reset()
	}
}

// Quantile answers a φ-quantile query at the coordinator.
func (t *Tracker) Quantile(phi float64) uint64 { return t.merged.Quantile(phi) }

// Quantiles appends to out the answer to a φ-quantile query for every φ of
// phis, from one pass over the coordinator digest (QDigest.Quantiles).
func (t *Tracker) Quantiles(phis []float64, out []uint64) []uint64 {
	return t.merged.Quantiles(phis, out)
}

// EstimateTotal returns the coordinator's weight tally.
func (t *Tracker) EstimateTotal() float64 { return t.rule.Tally }

// Stats returns the communication tally.
func (t *Tracker) Stats() stream.Stats { return t.rule.Acct.Stats() }

// Bits returns the universe size exponent.
func (t *Tracker) Bits() uint { return t.bits }
