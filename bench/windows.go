package main

import (
	"math"
	"sort"
)

// The measured phase is cut into windows of windowSeconds. The script is
// fixed work, so windows of equal time differ only in how much of it they
// hold. A run's timings are read off all of its windows, each placed by
// what the host probe (probe.go) cost inside it: see timingsAtCalm.
const windowSeconds = 0.4

// sample is one reading of the server's CPU clock, t seconds into the
// phase; consecutive samples bound a window.
type sample struct {
	t, cpu float64
}

// window is what happened between two samples.
type window struct {
	seconds float64
	cpu     float64   // server CPU seconds spent
	updates int       // rows or items acked
	ackMs   []float64 // latency of every ingest ack that arrived
	queryMs []float64 // latency of every query reply that arrived
	host    float64   // the host probe's load reading for the window (hostLoad); NaN: it took no sample
}

func (w window) rate() float64 { return float64(w.updates) / w.seconds }

// cutWindows assigns every completion to the window it fell in and asks
// host for each window's load reading. Windows past end — the moment the
// first lane ran out of script — are dropped: from then on the server has
// one client, not two. So are windows in which nothing was acked.
func cutWindows(lanes [][]opRec, samples []sample, host func(from, to float64) float64, end float64) []window {
	var all []opRec
	for _, recs := range lanes {
		all = append(all, recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	var out []window
	k := 0
	for i := 0; i+1 < len(samples) && samples[i+1].t <= end; i++ {
		lo, hi := samples[i], samples[i+1]
		for k < len(all) && all[k].done < lo.t {
			k++
		}
		w := window{seconds: hi.t - lo.t, cpu: hi.cpu - lo.cpu, host: host(lo.t, hi.t)}
		for ; k < len(all) && all[k].done < hi.t; k++ {
			if r := all[k]; r.query {
				w.queryMs = append(w.queryMs, r.ms)
			} else {
				w.updates += r.updates
				w.ackMs = append(w.ackMs, r.ms)
			}
		}
		if w.updates > 0 {
			out = append(out, w)
		}
	}
	return out
}

// timings are a run's end-to-end timing metrics, as they would be on the
// reference core with the neighbours away.
type timings struct {
	updatesPerS, ackMsP50, queryMsP50, cpuUsPerUpdate float64
}

// timingsAtCalm takes the host out of a run's timings: every duration
// measured in a window — its seconds per update, each ack and query
// latency, its server CPU — is divided by what the host probe says the
// core cost in that window (hostSlowdown), and then come the usual
// statistics: the median over windows of the update rate, the median over
// all measured ops of each latency, CPU over updates. How much a window is
// corrected is decided by the probe alone, with constants fixed here; what
// the server achieved in the window has no say. In a run on a calm
// reference core nothing is corrected.
func timingsAtCalm(ws []window, calmNs float64) timings {
	var secPerUpdate, ack, query []float64
	var cpu float64
	var updates int
	for _, w := range ws {
		slow := hostSlowdown(w.host, calmNs)
		secPerUpdate = append(secPerUpdate, w.seconds/float64(w.updates)/slow)
		for _, ms := range w.ackMs {
			ack = append(ack, ms/slow)
		}
		for _, ms := range w.queryMs {
			query = append(query, ms/slow)
		}
		cpu += w.cpu / slow
		updates += w.updates
	}
	t := timings{ackMsP50: median(ack), queryMsP50: median(query)}
	if len(ws) > 0 {
		t.updatesPerS = 1 / median(secPerUpdate)
		t.cpuUsPerUpdate = cpu * 1e6 / float64(updates)
	}
	return t
}

// The host moves a run's timings in two ways, and the probe sees both.
// The core itself changes speed: over a day the probe's calm cost sits at
// 68, 74–75 or 77–80 µs for minutes to hours on end, and everything the
// server does scales with it. And a neighbour on the sibling hyperthread
// slows the core for as long as it runs: the probe's mean cost over a
// window moves from the calm level towards twice that by the share of the
// window the neighbour took.
//
// The server's seconds per update follow the probe's mean cost in
// proportion. Pooled over 1,700 windows of the three matrix workloads on a
// day of light neighbours, they stood at 1.10–1.20, 1.28–1.36, 1.47–1.62
// and 1.63–1.74 × their calm value where the probe stood at 1.27, 1.45,
// 1.64 and 1.82 ×; on a day of heavy ones (ten runs a workload, half of
// them at 1.9 ×) a tenth above that. So a duration is divided by the
// probe's mean cost where it was measured, over refProbeNs — what that
// mean is in a calm window of the reference sandbox in its usual state
// (77 µs and the 15 % by which a window's mean exceeds the cheapest
// readings even then). Nothing is fitted run by run: a slope fitted over
// one run's thirty windows scattered between 0.2 and 1.1 and put more
// spread into calm runs than it took out of disturbed ones.
const refProbeNs = 88500

// hostSlowdown is by how much a duration is longer than on the calm
// reference core, measured where the probe's mean cost was (1 + load) ×
// calmNs. A stretch nobody watched (NaN) is taken as that core.
func hostSlowdown(load, calmNs float64) float64 {
	if math.IsNaN(load) {
		return 1
	}
	return (1 + load) * calmNs / refProbeNs
}
