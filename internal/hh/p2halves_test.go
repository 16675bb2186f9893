package hh

import (
	"math"
	"testing"

	"repro/internal/gen"
)

// p2Msg is one recorded uplink message: a scalar report or an element
// report.
type p2Msg struct {
	element bool
	site    int
	elem    uint64
	value   float64
}

// p2Tap records every uplink message and forwards it.
type p2Tap struct {
	next P2Uplink
	log  *[]p2Msg
}

func (t p2Tap) Scalar(site int, wi float64) {
	*t.log = append(*t.log, p2Msg{site: site, value: wi})
	t.next.Scalar(site, wi)
}

func (t p2Tap) Element(site int, elem uint64, de float64) {
	*t.log = append(*t.log, p2Msg{element: true, site: site, elem: elem, value: de})
	t.next.Element(site, elem, de)
}

// TestP2HalvesReplay is internal/core's test of the same name for
// Algorithms 4.3/4.4: the coordinator half, fed nothing but the recorded
// message order of a tracker run, must end Float64bits-identical to the
// tracker's coordinator — Ŵ and every Ŵ_e — for the exact-delta and the
// SpaceSaving site alike.
func TestP2HalvesReplay(t *testing.T) {
	const m, eps = 4, 0.05
	items := gen.ZipfStream(gen.DefaultZipfConfig(20_000))
	for name, p := range map[string]*P2{"exact": NewP2(m, eps), "spacesaving": NewP2SpaceSaving(m, eps, 0)} {
		var log []p2Msg
		for i := range p.sites {
			p.sites[i].up = p2Tap{next: p.sites[i].up, log: &log}
		}
		for i, it := range items {
			p.Process(i%m, it.Elem, it.Weight)
		}

		if got, want := int64(len(log)), p.Stats().UpMsgs; got != want || got == 0 {
			t.Fatalf("%s: uplink called %d times, tracker tallied %d up messages", name, got, want)
		}
		replay := NewP2Coordinator(m)
		var broadcasts int64
		for _, msg := range log {
			if msg.element {
				replay.Element(msg.elem, msg.value)
			} else if _, b := replay.Scalar(msg.value); b {
				broadcasts++
			}
		}
		if broadcasts != p.Stats().Broadcasts {
			t.Fatalf("%s: replay broadcast %d times, tracker %d", name, broadcasts, p.Stats().Broadcasts)
		}
		if a, b := replay.EstimateTotal(), p.EstimateTotal(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: replayed Ŵ %v, tracker %v", name, a, b)
		}
		got, want := replay.Candidates(), p.Candidates()
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: replay tracks %d elements, tracker %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Elem != want[i].Elem || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("%s: replayed estimate %+v, tracker %+v", name, got[i], want[i])
			}
		}
	}
}
