package stream

// P1 is the ship-and-broadcast rule of the paper's P1 (Algorithms 4.1/4.2
// for heavy hitters, 5.1/5.2 for matrices, and the quantile tracker over
// q-digest): site i ships its summary when its unsent mass reaches
// (ε/2m)·Ŵ, the coordinator adds the shipped mass to its tally, and it
// broadcasts the tally as the new Ŵ whenever the tally passes (1+ε/2)·Ŵ.
// The owning protocol keeps the summaries and merges them; P1 keeps the
// masses, the tally, Ŵ and the message count, which snapshots read and
// restore directly.
type P1 struct {
	eps   float64
	Mass  []float64 // per-site mass since the site's last ship
	Tally float64   // the coordinator's sum of shipped mass, its estimate of W
	What  float64   // Ŵ: the last broadcast estimate
	Acct  *Accountant
}

// NewP1 returns the rule for m sites with error ε, for callers that have
// already validated m (an invalid one panics, as in NewAccountant).
func NewP1(m int, eps float64) P1 {
	// The paper takes every weight and squared row norm ≥ 1, so Ŵ = 1 is a
	// lower bound at start.
	return P1{eps: eps, Mass: make([]float64, m), What: 1, Acct: NewAccountant(m)}
}

// Add records mass w arriving at site and reports whether the site must
// now ship (and call Ship).
//
//distlint:hotpath
func (r *P1) Add(site int, w float64) bool {
	r.Mass[site] += w
	return r.Mass[site] >= (r.eps/(2*float64(len(r.Mass))))*r.What
}

// Ship records site's summary of n messages reaching the coordinator — at
// least one, the mass scalar riding on the first — moves the site's mass
// into the tally, and broadcasts a new Ŵ when the tally has outgrown the
// old one by more than a factor 1+ε/2.
//
//distlint:hotpath
func (r *P1) Ship(site, n int) {
	r.Acct.SendUpN(max(n, 1), 1)
	r.Tally += r.Mass[site]
	r.Mass[site] = 0
	if r.Tally/r.What > 1+float64(r.eps/2) {
		r.What = r.Tally
		r.Acct.Broadcast(1)
	}
}
