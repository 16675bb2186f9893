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
	acct *stream.Accountant

	sites []trackerSite
	// Coordinator state.
	merged *QDigest
	tally  float64
	what   float64
}

type trackerSite struct {
	digest *QDigest
	weight float64
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
	t := &Tracker{
		m:      m,
		eps:    eps,
		bits:   bits,
		acct:   stream.NewAccountant(m),
		sites:  make([]trackerSite, m),
		merged: NewQDigest(bits, eps/2),
		what:   1,
	}
	for i := range t.sites {
		t.sites[i].digest = NewQDigest(bits, eps/2)
	}
	return t
}

// Eps returns the rank error parameter.
func (t *Tracker) Eps() float64 { return t.eps }

// Process delivers one weighted value to a site.
func (t *Tracker) Process(site int, value uint64, w float64) {
	if site < 0 || site >= t.m {
		panic(fmt.Sprintf("quantile: site %d out of range [0,%d)", site, t.m))
	}
	if !gen.ValidWeight(w) {
		panic(fmt.Sprintf("quantile: need positive finite weight, got %v", w))
	}
	s := &t.sites[site]
	s.digest.Update(value, w)
	s.weight += w
	if s.weight >= (t.eps/(2*float64(t.m)))*t.what {
		t.ship(site)
	}
}

func (t *Tracker) ship(site int) {
	s := &t.sites[site]
	s.digest.Compress()
	// One message per digest node, with the weight scalar piggybacked.
	n := s.digest.Size()
	if n < 1 {
		n = 1
	}
	t.acct.SendUpN(n, 1)

	t.merged.Merge(s.digest)
	t.tally += s.weight
	s.digest.Reset()
	s.weight = 0

	if t.tally/t.what > 1+t.eps/2 {
		t.what = t.tally
		t.acct.Broadcast(1)
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
func (t *Tracker) EstimateTotal() float64 { return t.tally }

// Stats returns the communication tally.
func (t *Tracker) Stats() stream.Stats { return t.acct.Stats() }

// Bits returns the universe size exponent.
func (t *Tracker) Bits() uint { return t.bits }

// AccumulateInto is the tracker-level merge surface: it folds the
// coordinator digest into dst (without compressing, so a one-shard merge
// is node-identical to the shard's own digest). A universe mismatch
// returns a wrapped ErrMergeMismatch instead of panicking — this is the
// boundary service-reachable shard merges cross, and a daemon restoring a
// bad checkpoint must survive it.
func (t *Tracker) AccumulateInto(dst *QDigest) error {
	if dst.bits != t.bits {
		return fmt.Errorf("quantile: accumulating digest with bits %d into bits %d: %w",
			t.bits, dst.bits, ErrMergeMismatch)
	}
	dst.absorb(t.merged)
	return nil
}
