package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// p2Msg is one recorded uplink message: a scalar report (vec == nil) or a
// shipped σ·v.
type p2Msg struct {
	site  int
	value float64
	vec   []float64
}

// p2Tap records every uplink message and forwards it to next, if set:
// without a coordinator behind it, F̂ stays where the test sets it.
type p2Tap struct {
	next P2Uplink
	log  *[]p2Msg
}

func (t p2Tap) Scalar(site int, fj float64) {
	*t.log = append(*t.log, p2Msg{site: site, value: fj})
	if t.next != nil {
		t.next.Scalar(site, fj)
	}
}

func (t p2Tap) Row(site int, row []float64) {
	*t.log = append(*t.log, p2Msg{site: site, vec: append([]float64(nil), row...)})
	if t.next != nil {
		t.next.Row(site, row)
	}
}

// TestP2HalvesReplay is the gate a networked deployment will be held to
// (ROADMAP 2(b)): the coordinator half, fed nothing but the recorded message
// order of a tracker run, must end Float64bits-identical to the tracker's
// coordinator — Gram and F̂. It also pins that the uplink is the only
// channel between the halves and that it is called once per tallied
// message, over both site stores: P2's Gram and P2SmallSpace's FD pair.
func TestP2HalvesReplay(t *testing.T) {
	const m, eps, d, block = 4, 0.1, 44, 96
	rows := gen.LowRankMatrix(gen.PAMAPLike(2500))
	trackers := map[string]func() *P2{
		"P2":      func() *P2 { return NewP2(m, eps, d) },
		"P2small": func() *P2 { return NewP2SmallSpace(m, eps, d).P2 },
	}
	for name, build := range trackers {
		for _, mode := range []IngestMode{IngestExact, IngestFast} {
			p := build()
			p.mode = mode
			var log []p2Msg
			for i := range p.sites {
				p.sites[i].up = p2Tap{next: p.sites[i].up, log: &log}
			}
			for lo, site := 0, 0; lo < len(rows); lo, site = lo+block, (site+1)%m {
				p.ProcessRows(site, rows[lo:min(lo+block, len(rows))])
			}

			if got, want := int64(len(log)), p.Stats().UpMsgs; got != want || got == 0 {
				t.Fatalf("%s %v: uplink called %d times, tracker tallied %d up messages", name, mode, got, want)
			}
			replay := NewP2Coordinator(m, eps, d)
			var broadcasts int64
			for _, msg := range log {
				if msg.vec != nil {
					replay.Row(msg.vec)
				} else if _, b := replay.Scalar(msg.value); b {
					broadcasts++
				}
			}
			if broadcasts != p.Stats().Broadcasts {
				t.Fatalf("%s %v: replay broadcast %d times, tracker %d", name, mode, broadcasts, p.Stats().Broadcasts)
			}
			if a, b := replay.EstimateFrobenius(), p.EstimateFrobenius(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s %v: replayed F̂ %v, tracker %v", name, mode, a, b)
			}
			got, want := replay.Gram().RawData(), p.Gram().RawData()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %v: replayed Gram differs at %d: %v vs %v", name, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// TestP2SiteReportsEigensolverFailure hands a lone site half a NaN Gram (a
// corrupt snapshot: no finite row stream produces one) whose deferral bound
// is already over the threshold: the half returns the failure instead of
// panicking, and the simulator turns the same error into its panic.
func TestP2SiteReportsEigensolverFailure(t *testing.T) {
	var log []p2Msg
	s, err := NewP2Site(0, 1, 0.5, 3, p2Tap{next: (*p2Direct)(NewP2(1, 0.5, 3)), log: &log})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := P2SiteSnapshot{Gram: make([]float64, 9), LamBound: 10}
	for i := range poisoned.Gram {
		poisoned.Gram[i] = math.NaN()
	}
	if err := s.Restore(poisoned); err != nil {
		t.Fatal(err)
	}
	failed := s.ProcessBlock([][]float64{{1, 1, 1}})
	if failed == nil || !strings.Contains(failed.Error(), "core: P2 eigendecomposition failed") {
		t.Fatalf("site half returned %v, want an eigendecomposition failure", failed)
	}
	defer func() {
		if r := recover(); r != failed.Error() {
			t.Fatalf("simulator panicked with %v, want %q", r, failed)
		}
	}()
	mustP2(failed)
}

// TestP2SiteRefusesOverflowingRow feeds a site half the finite row
// [1e200, 1, 0], whose square overflows its Gram to +Inf. QL fails on it and
// so, since it refuses non-finite entries, does the Jacobi fallback:
// ProcessBlock returns the eigensolver error, and no row leaves the site.
// Jacobi used to stop at once on the Inf and ship the row Inf·e₀.
func TestP2SiteRefusesOverflowingRow(t *testing.T) {
	var log []p2Msg
	s, err := NewP2Site(0, 1, 0.5, 3, p2Tap{next: (*p2Direct)(NewP2(1, 0.5, 3)), log: &log})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEstimate(1e6) // the first row stays below the threshold, so the Gram is not a sole row
	if err := s.ProcessBlock([][]float64{{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	failed := s.ProcessBlock([][]float64{{1e200, 1, 0}})
	if failed == nil || !strings.Contains(failed.Error(), "core: P2 eigendecomposition failed") {
		t.Fatalf("site half returned %v, want an eigendecomposition failure", failed)
	}
	for _, msg := range log {
		if msg.vec != nil {
			t.Errorf("site shipped the row %v", msg.vec)
		}
	}
}

// TestP2SiteJacobiFallback streams a block whose Gram EigAbove cannot
// decompose (matrix's aboveOverflowRows: the entry 1e308 turns its
// reduction into a NaN) through a site half at F̂ = 0, where every
// direction ships: the site answers from jacobiAbove, and ships σ·v for
// each of JacobiEigSym's pairs, bit for bit.
func TestP2SiteJacobiFallback(t *testing.T) {
	rows := [][]float64{{1e154, 1}, {1, 1}}
	g := matrix.NewSym(2)
	g.AddBlock(rows)
	if _, _, _, err := matrix.EigAbove(g, 0, matrix.NewEigWorkspace()); err == nil {
		t.Fatal("EigAbove decomposes the block's Gram: the fallback is not reached")
	}
	vals, V, err := matrix.JacobiEigSym(g)
	if err != nil {
		t.Fatal(err)
	}

	var log []p2Msg
	s, err := NewP2Site(0, 1, 0.5, 2, p2Tap{log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ProcessBlock(rows); err != nil {
		t.Fatal(err)
	}
	var shipped [][]float64
	for _, msg := range log {
		if msg.vec != nil {
			shipped = append(shipped, msg.vec)
		}
	}
	if len(shipped) != len(vals) {
		t.Fatalf("site shipped %d rows, Jacobi has %d eigenpairs %v", len(shipped), len(vals), vals)
	}
	for k, row := range shipped {
		sigma := math.Sqrt(vals[k])
		for i, x := range row {
			if want := sigma * V.At(i, k); math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("shipped row %d = %v, want σ·v = %v·column %d of Jacobi's V", k, row, sigma, k)
			}
		}
	}
}
