package core

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/sketch"
)

// P2SmallSpace is the bounded-site-space variant of P2 that Section 5.2
// ("Bounding space at sites") describes: instead of the exact unsent matrix
// B_j, each site keeps two Frequent Directions sketches with error ε/4m —
// Ã_j over everything it has received and S̃_j over everything it has sent —
// and tests directions of the implicit B̃_j via ‖B̃_j x‖² = ‖Ã_j x‖² − ‖S̃_j x‖².
// A direction ships when ‖B̃_j v‖² ≥ (3ε/8m)·F̂, half the paper's (3ε/4m)·F̂
// as P2 ships early, which by the paper's argument sends at most twice as
// often as the exact protocol and never violates the (ε/m)·F̂ requirement,
// preserving Theorem 4's guarantee. The paper bounds a site's space at
// O(m/ε) rows. A site here holds its two FD sketches: ℓ×d rows each (plus
// a buffer of 2ℓ rows) when ℓ = ⌈4m/ε⌉ < d, and a d×d Gram each in the
// sketches' exact mode, which the paper's shapes reach (ℓ = 400 at m = 10,
// ε = 0.1). The difference Gram each decomposition reads is built in a d×d
// scratch that all the sites share.
//
// It is the P2 simulator over fdPair sites at ship fraction 3/8: the site
// step, both ingest modes and the query surface are P2's.
type P2SmallSpace struct{ *P2 }

// NewP2SmallSpace builds the bounded-space variant for m sites, error ε,
// dimension d.
func NewP2SmallSpace(m int, eps float64, d int) *P2SmallSpace {
	validateParams(m, eps, d)
	ell := int(P2SmallSketchRows(m, eps))
	return &P2SmallSpace{newP2(m, eps, d, 3.0/8, func() siteStore {
		return &fdPair{recv: sketch.NewFD(ell, d), sent: sketch.NewFD(ell, d)}
	})}
}

// P2SmallSketchRows is ℓ = ⌈4m/ε⌉, the size of each of P2SmallSpace's site
// sketches (FD error ε/4m by our FD's 1/(ℓ+1) bound), before its conversion
// to an int: a small enough ε/m puts it past what an int holds.
func P2SmallSketchRows(m int, eps float64) float64 { return math.Ceil(4 * float64(m) / eps) }

// NewP2SmallSpaceFast builds the bounded-space variant in the blocked fast
// ingest mode (see IngestFast): blocks land in the site sketches whole, and
// the implicit-difference eigendecomposition runs once per crossing block.
func NewP2SmallSpaceFast(m int, eps float64, d int) *P2SmallSpace {
	p := NewP2SmallSpace(m, eps, d)
	p.mode = IngestFast
	return p
}

// Name implements Tracker.
func (p *P2SmallSpace) Name() string { return "P2small" }

// fdPair is B_j as the sketch pair (Ã_j, S̃_j): its Gram is the difference
// of theirs, built in the site's p2Scratch, and a shipped row joins S̃_j.
// It has no sole-row shortcut, and nothing to clear when drained.
type fdPair struct {
	recv *sketch.FD // Ã_j: all rows received at the site
	sent *sketch.FD // S̃_j: all rows shipped to the coordinator
}

//distlint:hotpath
func (b *fdPair) fold(rows [][]float64) { b.recv.AppendRows(rows) }

func (b *fdPair) sole() []float64 { return nil }

func (b *fdPair) gram(ws *p2Scratch) *matrix.Sym {
	if ws.diff == nil {
		ws.diff = matrix.NewSym(b.recv.Dim())
	}
	ws.diff.Reset()
	b.recv.AccumulateGram(ws.diff, 1)
	b.sent.AccumulateGram(ws.diff, -1)
	return ws.diff
}

func (b *fdPair) remove(row, _ []float64, _ float64) { b.sent.Append(row) }

func (b *fdPair) drained() {}
