// Netmon: distributed network monitoring with weighted heavy hitters.
//
// The paper's Section 4 motivation: routers at m vantage points observe
// flows; the weight of an element is the bytes sent to a destination, not
// the packet count. The operations center must continuously know every
// destination receiving more than φ of global traffic — without shipping
// per-flow logs.
//
//	go run ./examples/netmon
package main

import (
	"fmt"
	"log"
	"math/rand"

	distmat "repro"
)

func main() {
	const (
		sites = 20   // vantage points
		eps   = 0.01 // tolerance: ±1% of global bytes
		phi   = 0.05 // alert threshold: 5% of global traffic
		n     = 400_000
	)
	rng := rand.New(rand.NewSource(7))

	// Traffic mix: three destinations dominate byte volume; note dst 3003 is
	// *rare* in packet count but huge per flow — a weighted-only heavy hitter.
	stream := make([]distmat.WeightedItem, n)
	for i := range stream {
		var dst uint64
		var bytes float64
		switch r := rng.Float64(); {
		case r < 0.04:
			dst, bytes = 1001, 500+rng.Float64()*800 // CDN origin
		case r < 0.06:
			dst, bytes = 2002, 400+rng.Float64()*600 // DDoS victim
		case r < 0.065:
			dst, bytes = 3003, 950+rng.Float64()*50 // rare, giant backups
		default:
			dst = 10_000 + uint64(rng.Intn(100_000)) // mice flows
			bytes = 1 + rng.Float64()*40
		}
		stream[i] = distmat.WeightedItem{Elem: dst, Weight: bytes}
	}

	monitor, err := distmat.NewHHSession("p2",
		distmat.WithSites(sites),
		distmat.WithEpsilon(eps),
		distmat.WithSeed(8))
	if err != nil {
		log.Fatal(err)
	}
	if err := monitor.ProcessItems(stream); err != nil {
		log.Fatal(err)
	}

	// Ground truth for the report.
	exact := distmat.NewHHExact(sites)
	truth, err := distmat.WrapHHSession(exact, distmat.WithAssigner(distmat.NewUniformRandom(sites, 8)))
	if err != nil {
		log.Fatal(err)
	}
	if err := truth.ProcessItems(stream); err != nil {
		log.Fatal(err)
	}

	snap := monitor.Snapshot()
	fmt.Printf("monitored %d flows across %d vantage points\n", n, sites)
	fmt.Printf("total bytes: %.4g (coordinator estimate: %.4g)\n",
		exact.EstimateTotal(), snap.Total)
	fmt.Printf("communication: %d messages (%.2f%% of naive per-flow export)\n\n",
		snap.Stats.Total(), 100*float64(snap.Stats.Total())/float64(n))

	hot, err := monitor.HeavyHitters(phi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("destinations above %.0f%% of global bytes:\n", phi*100)
	for _, hh := range hot {
		share := hh.Weight / snap.Total
		fmt.Printf("  dst %-6d  est bytes %.4g  (%.1f%% of traffic, exact %.4g)\n",
			hh.Elem, hh.Weight, share*100, exact.Estimate(hh.Elem))
	}
}
