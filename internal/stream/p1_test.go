package stream

import (
	"slices"
	"testing"
)

// TestP1Rule feeds P1 arrivals, shipping n messages whenever Add says so,
// and checks the arrivals that shipped, the masses, the tally, Ŵ and the
// message tally against values worked out by hand.
func TestP1Rule(t *testing.T) {
	type arrival struct {
		site int
		w    float64
	}
	ones := func(k int) []arrival { return slices.Repeat([]arrival{{0, 1}}, k) }
	cases := []struct {
		name        string
		m, n        int // sites, and messages in each shipped summary
		eps         float64
		arrivals    []arrival
		ships       []int // indices of the arrivals that shipped
		mass        []float64
		tally, what float64
		stats       Stats
	}{{
		// τ = Ŵ/2 and a broadcast past 1.5·Ŵ: Ŵ goes 1, 2, 4, 8 and the
		// gap between ships doubles with it.
		name: "integer weights", m: 1, eps: 1, n: 3, arrivals: ones(12),
		ships: []int{0, 1, 2, 3, 5, 7, 11}, mass: []float64{0}, tally: 12, what: 8,
		stats: Stats{UpMsgs: 21, DownMsgs: 3, Broadcasts: 3, UpUnits: 21, DownUnits: 3},
	}, {
		name: "tally at 1.5·Ŵ does not broadcast", m: 1, eps: 1, n: 1,
		arrivals: []arrival{{0, 2}, {0, 1}},
		ships:    []int{0, 1}, mass: []float64{0}, tally: 3, what: 2,
		stats: Stats{UpMsgs: 2, DownMsgs: 1, Broadcasts: 1, UpUnits: 2, DownUnits: 1},
	}, {
		name: "tally at 1.25·Ŵ does not broadcast", m: 1, eps: 0.5, n: 1,
		arrivals: []arrival{{0, 4}, {0, 1}},
		ships:    []int{0, 1}, mass: []float64{0}, tally: 5, what: 4,
		stats: Stats{UpMsgs: 2, DownMsgs: 1, Broadcasts: 1, UpUnits: 2, DownUnits: 1},
	}, {
		name: "an empty summary is one message", m: 2, eps: 0.5, n: 0,
		arrivals: []arrival{{1, 1}},
		ships:    []int{0}, mass: []float64{0, 0}, tally: 1, what: 1,
		stats: Stats{UpMsgs: 1, UpUnits: 1},
	}, {
		// τ = Ŵ/4, a broadcast past 1.5·Ŵ, each broadcast two messages.
		name: "two sites", m: 2, eps: 1, n: 2,
		arrivals: []arrival{{0, 1}, {1, 1}, {0, 1}, {1, 2}, {0, 1}, {1, 1}, {0, 1}, {1, 1}, {0, 1}},
		ships:    []int{0, 1, 2, 3, 6, 7}, mass: []float64{1, 0}, tally: 9, what: 9,
		stats: Stats{UpMsgs: 12, DownMsgs: 6, Broadcasts: 3, UpUnits: 12, DownUnits: 6},
	}}
	for _, c := range cases {
		r := NewP1(c.m, c.eps)
		var ships []int
		for i, a := range c.arrivals {
			if r.Add(a.site, a.w) {
				r.Ship(a.site, c.n)
				ships = append(ships, i)
			}
		}
		if got := r.Acct.Stats(); !slices.Equal(ships, c.ships) || !slices.Equal(r.Mass, c.mass) ||
			r.Tally != c.tally || r.What != c.what || got != c.stats {
			t.Errorf("%s: ships %v, mass %v, tally %v, Ŵ %v, %+v; want %v, %v, %v, %v, %+v",
				c.name, ships, r.Mass, r.Tally, r.What, got, c.ships, c.mass, c.tally, c.what, c.stats)
		}
	}
}
