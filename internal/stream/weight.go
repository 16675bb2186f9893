package stream

import "fmt"

// WeightTracker continuously maintains a coordinator-side estimate Ŵ of the
// global total weight with Ŵ ≤ W ≤ (1+2θ)Ŵ, using the standard
// threshold-doubling protocol: site i reports its unsent weight V_i when
// V_i ≥ (θ/m)·Ŵ, and the coordinator broadcasts a new Ŵ when its tally
// grows past (1+θ)·Ŵ. Total cost O((m/θ)·log_{1+θ}(βN)) messages.
//
// Both P4s run one of these with θ = 1/2 to keep their sampling
// probability p = 2√m/(εŴ) a constant-factor approximation of the ideal:
// heavy hitters' (§4.4) over item weights, the matrix one's (Appendix C)
// over squared row norms, where Ŵ is the estimate F̂ of ‖A‖²_F.
type WeightTracker struct {
	m     int
	theta float64
	acct  *Accountant

	what    float64   // Ŵ: last broadcast estimate
	tally   float64   // coordinator's running sum of reported weight
	pending []float64 // per-site unsent weight V_i
}

// NewWeightTracker returns a tracker for m sites with slack θ ∈ (0, 1].
// The accountant is shared with the owning protocol so its traffic is
// included in the protocol's message count.
func NewWeightTracker(m int, theta float64, acct *Accountant) *WeightTracker {
	if theta <= 0 || theta > 1 {
		panic(fmt.Sprintf("stream: need 0 < θ ≤ 1, got %v", theta))
	}
	return &WeightTracker{
		m:       m,
		theta:   theta,
		acct:    acct,
		what:    1, // weights are ≥ 1, so Ŵ = 1 is a valid lower bound at start
		pending: make([]float64, m),
	}
}

// Observe processes weight w arriving at site; Estimate reads the Ŵ it
// may have moved.
func (t *WeightTracker) Observe(site int, w float64) {
	t.pending[site] += w
	if t.pending[site] < (t.theta/float64(t.m))*t.what {
		return
	}
	// Site reports its pending weight: one scalar up-message.
	t.acct.SendUp(1)
	t.tally += t.pending[site]
	t.pending[site] = 0
	if t.tally >= (1+t.theta)*t.what {
		t.what = t.tally
		t.acct.Broadcast(1)
	}
}

// Estimate returns Ŵ, the last broadcast estimate known to every site.
func (t *WeightTracker) Estimate() float64 { return t.what }

// CoordinatorTally returns the coordinator's internal running sum, which
// leads Ŵ by at most θ·Ŵ.
func (t *WeightTracker) CoordinatorTally() float64 { return t.tally }
