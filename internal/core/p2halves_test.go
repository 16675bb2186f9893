package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
)

// p2Msg is one recorded uplink message: a scalar report (vec == nil) or a
// shipped σ·v.
type p2Msg struct {
	site  int
	value float64
	vec   []float64
}

// p2Tap records every uplink message and forwards it.
type p2Tap struct {
	next P2Uplink
	log  *[]p2Msg
}

func (t p2Tap) Scalar(site int, fj float64) {
	*t.log = append(*t.log, p2Msg{site: site, value: fj})
	t.next.Scalar(site, fj)
}

func (t p2Tap) Row(site int, row []float64) {
	*t.log = append(*t.log, p2Msg{site: site, vec: append([]float64(nil), row...)})
	t.next.Row(site, row)
}

// TestP2HalvesReplay is the gate a networked deployment will be held to
// (ROADMAP 2(b)): the coordinator half, fed nothing but the recorded message
// order of a tracker run, must end Float64bits-identical to the tracker's
// coordinator — Gram and F̂. It also pins that the uplink is the only
// channel between the halves and that it is called once per tallied message.
func TestP2HalvesReplay(t *testing.T) {
	const m, eps, d, block = 4, 0.1, 44, 96
	rows := gen.LowRankMatrix(gen.PAMAPLike(2500))
	for _, mode := range []IngestMode{IngestExact, IngestFast} {
		p := NewP2(m, eps, d)
		p.mode = mode
		var log []p2Msg
		for i := range p.sites {
			p.sites[i].up = p2Tap{next: p.sites[i].up, log: &log}
		}
		for lo, site := 0, 0; lo < len(rows); lo, site = lo+block, (site+1)%m {
			p.ProcessRows(site, rows[lo:min(lo+block, len(rows))])
		}

		if got, want := int64(len(log)), p.Stats().UpMsgs; got != want || got == 0 {
			t.Fatalf("%v: uplink called %d times, tracker tallied %d up messages", mode, got, want)
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
			t.Fatalf("%v: replay broadcast %d times, tracker %d", mode, broadcasts, p.Stats().Broadcasts)
		}
		if a, b := replay.EstimateFrobenius(), p.EstimateFrobenius(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%v: replayed F̂ %v, tracker %v", mode, a, b)
		}
		got, want := replay.Gram().RawData(), p.Gram().RawData()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: replayed Gram differs at %d: %v vs %v", mode, i, got[i], want[i])
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
