package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A run starts the host probe by re-executing its own binary; under `go
// test` that binary is this one.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-probe" {
		os.Exit(probeMain())
	}
	os.Exit(m.Run())
}

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := make([]float64, 100) // 1..100, shuffled by stride
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}, {100, 100}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 1 || xs[1] != 38 {
		t.Errorf("percentile sorted its argument in place")
	}
}

// A tail percentile needs ten samples beyond it: p99 needs 1,000.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		enough bool
	}{
		{99, 90, false}, {100, 90, true},
		{999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true},
	} {
		if got := tailResolved(tc.n, tc.p); got != tc.enough {
			t.Errorf("tailResolved(%d, p%v) = %v, want %v", tc.n, tc.p, got, tc.enough)
		}
	}
}

// cutPoint must agree with Python's statistics.quantiles, which is what
// the acceptance check computes spreads with.
func TestCutPointMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := cutPoint(xs, i+1, 4); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartile %d of 1..10 = %v, want %v", i+1, got, want)
		}
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	ys := []float64{1, 2, 4, 8, 16, 32}
	for i, want := range []float64{1.75, 6, 20} {
		if got := cutPoint(ys, i+1, 4); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartile %d of powers of two = %v, want %v", i+1, got, want)
		}
	}
	if got, want := iqrOverMedian(ys), (20-1.75)/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrOverMedian = %v, want %v", got, want)
	}
}

func TestInputsRepeatForEqualSeedsOnly(t *testing.T) {
	for _, w := range allWorkloads() {
		a := genInputs(w, 7, 12, poolBlocksSmoke).digest()
		b := genInputs(w, 7, 12, poolBlocksSmoke).digest()
		c := genInputs(w, 8, 12, poolBlocksSmoke).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave two different inputs", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.Name)
		}
	}
}

// Each lane must stay on its own sites and its own pool blocks, or
// per-site FIFO order would depend on how the lanes interleave.
func TestLanesOwnDisjointBlocksAndSites(t *testing.T) {
	for _, w := range allWorkloads() {
		in := genInputs(w, 1, 40, poolBlocksSmoke)
		for l, script := range in.scripts {
			for _, o := range script {
				if o.kind != opIngest {
					continue
				}
				if int(o.block)%lanes != l {
					t.Fatalf("%s: lane %d sends block %d", w.Name, l, o.block)
				}
				if s := blockSite(int(o.block)); s%lanes != l || s >= sites {
					t.Fatalf("%s: lane %d block %d arrives at site %d", w.Name, l, o.block, s)
				}
			}
		}
	}
}

func TestZipfDeckKeepsProportions(t *testing.T) {
	deck := zipfDeck(tenancyHot, tenancyDeck, tenancyZipf)
	count := make([]int, tenancyHot)
	for _, k := range deck {
		count[k]++
	}
	var sum float64
	for k := 0; k < tenancyHot; k++ {
		sum += math.Pow(float64(1+k), -tenancyZipf)
	}
	for k, c := range count {
		want := tenancyDeck * math.Pow(float64(1+k), -tenancyZipf) / sum
		if math.Abs(float64(c)-want) > 1 {
			t.Errorf("tracker %d appears %d times, want %.2f ± 1", k, c, want)
		}
	}
}

// durable-tenancy's fault-ins are decided by the script, not by the seed:
// every tenancyColdEvery-th draw of a lane goes to one of its own lukewarm
// trackers in turn, and those draws are ingests as well as queries (a
// lukewarm tracker that never logs a record replays the whole log).
func TestTenancyDrawsOneLukewarmTrackerIn199(t *testing.T) {
	w := lookupWorkload("durable-tenancy")
	const periods = 1000
	for _, seed := range []int64{1, 2} {
		in := genInputs(w, seed, periods, poolBlocksSmoke)
		for l, script := range in.scripts {
			lukewarm, kinds, last := 0, map[uint8]int{}, -1
			for _, o := range script {
				switch k := int(o.tracker); {
				case k < tenancyHot:
				case k >= tenancyHot+l*tenancyLukewarm && k < tenancyHot+(l+1)*tenancyLukewarm:
					if k == last {
						t.Fatalf("seed %d lane %d: lukewarm tracker %d drawn twice in a row: the second draw would find it resident", seed, l, k)
					}
					lukewarm, last = lukewarm+1, k
					kinds[o.kind]++
				default:
					t.Fatalf("seed %d lane %d: draw of tracker %d, neither hot nor this lane's lukewarm", seed, l, k)
				}
			}
			if want := len(script) / tenancyColdEvery; lukewarm != want {
				t.Errorf("seed %d lane %d: %d lukewarm draws in %d ops, want %d", seed, l, lukewarm, len(script), want)
			}
			if kinds[opIngest] == 0 || kinds[opQuery] == 0 {
				t.Errorf("seed %d lane %d: lukewarm draws by kind %v, want ingests and queries", seed, l, kinds)
			}
		}
	}
}

// A layer's self time is its span minus its child spans.
func TestSelfTimeIsRungMinusChild(t *testing.T) {
	spans := []span{
		// op 0: a three-rung ladder, 100 → 60 → 25.
		{Name: "top", Op: 0, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "mid", Op: 0, ID: 10, Parent: 0, Start: 200, End: 260},
		{Name: "bottom", Op: 0, ID: 20, Parent: 10, Start: 300, End: 325},
		// op 1: the twin below ran slower than the rung above it.
		{Name: "top", Op: 1, ID: 1, Parent: -1, Start: 400, End: 440},
		{Name: "mid", Op: 1, ID: 11, Parent: 1, Start: 500, End: 550},
		// A side rung belongs to no ladder.
		{Name: "side", Op: 0, ID: 30, Parent: -1, Side: true, Start: 600, End: 607},
	}
	want := map[string]int64{"top": (100 - 60) + (40 - 50), "mid": (60 - 25) + 50, "bottom": 25, "side": 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// The ladder's self times add up to its top rung.
	var sum int64
	for name, v := range selfTimes(spans) {
		if name != "side" {
			sum += v
		}
	}
	if sum != 100+40 {
		t.Errorf("ladder self times sum to %d, want the top rung's 140", sum)
	}
}

func TestWindows(t *testing.T) {
	samples := []sample{{0, 0}, {1, 0.5}, {2, 1.5}, {3, 2.0}, {4, 2.5}, {5, 3.5}}
	lanes := [][]opRec{
		{{done: 0.5, ms: 2, updates: 100}, {done: 1.5, ms: 4, updates: 100}, {done: 2.5, ms: 2, updates: 100}, {done: 3.5, ms: 8, updates: 100}, {done: 4.9, ms: 1, updates: 100}},
		{{done: 0.6, ms: 6, query: true}, {done: 0.7, ms: 4, updates: 100}, {done: 2.6, ms: 3, updates: 200}, {done: 2.7, ms: 9, query: true}},
	}
	host := func(from, to float64) float64 { return from / 10 }
	ws := cutWindows(lanes, samples, host, 4.2) // the first lane to finish ended at 4.2 s: the fifth window is dropped
	var rates, loads []float64
	for _, w := range ws {
		rates = append(rates, w.rate())
		loads = append(loads, w.host)
	}
	if want := []float64{200, 100, 300, 100}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("window rates = %v, want %v", rates, want)
	}
	if want := []float64{0, 0.1, 0.2, 0.3}; !reflect.DeepEqual(loads, want) {
		t.Fatalf("window host loads = %v, want %v", loads, want)
	}
	if got := ws[0].cpu; got != 0.5 {
		t.Errorf("window 0 CPU = %v, want 0.5", got)
	}
	if got, want := ws[2].ackMs, []float64{2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("window 2 acks = %v, want %v", got, want)
	}
	if got, want := ws[2].queryMs, []float64{9}; !reflect.DeepEqual(got, want) {
		t.Errorf("window 2 queries = %v, want %v", got, want)
	}
}

func TestHostLoad(t *testing.T) {
	// Calm cost 100. Readings at 10, 20, …: two calm, one at the
	// disturbed level, one an interrupt stretched tenfold.
	samples := []probeSample{{at: 10, cost: 100}, {at: 20, cost: 100}, {at: 30, cost: 200}, {at: 40, cost: 1000}}
	for _, tc := range []struct {
		from, to int64
		want     float64
	}{
		{10, 30, 0},                              // [10, 30): the two calm ones
		{10, 31, 1.0 / 3},                        // … and the disturbed one
		{30, 40, 1},                              // the disturbed one alone
		{40, 50, probeCap - 1},                   // the stretched one counts as probeCap × calm
		{0, 100, (0 + 0 + 1 + probeCap - 1) / 4}, // all four
	} {
		if got := hostLoad(samples, 100, tc.from, tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("hostLoad [%d, %d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := hostLoad(samples, 100, 41, 50); !math.IsNaN(got) {
		t.Errorf("hostLoad over a stretch without readings = %v, want NaN", got)
	}
}

// synthWindows are windows of a run whose probe is cheapest at calmNs:
// the true rate on the calm reference core is 1000 updates/s, and every
// duration follows the probe's mean cost.
func synthWindows(calmNs float64, loads ...float64) []window {
	var ws []window
	for _, x := range loads {
		slow := (1 + x) * calmNs / refProbeNs
		// 100,000 updates per window keep the rounding of updates out of the way.
		ws = append(ws, window{
			seconds: 100 * slow, updates: 100000, cpu: 90 * slow, host: x, // busy all window long
			ackMs: []float64{2 * slow, 2 * slow, 50 * slow}, queryMs: []float64{5 * slow},
		})
	}
	return ws
}

// Whatever mix of calm and disturbed stretches a run met, and whatever
// speed its core had, its timings are those of the calm reference core.
func TestTimingsAtCalm(t *testing.T) {
	for _, calmNs := range []float64{68000, 77000, 131000} {
		ws := synthWindows(calmNs, 0, 0.25, 0.5, 0.75, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1)
		got := timingsAtCalm(ws, calmNs)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"updates_per_s", got.updatesPerS, 1000}, {"ack_ms_p50", got.ackMsP50, 2},
			{"query_ms_p50", got.queryMsP50, 5}, {"server_cpu_us_per_update", got.cpuUsPerUpdate, 900},
		} {
			if math.Abs(c.got-c.want) > 1e-9*c.want {
				t.Errorf("probe cheapest at %v ns: %s = %v, want %v", calmNs, c.name, c.got, c.want)
			}
		}
	}
	// A window the server itself made slow stays slow.
	ws := synthWindows(77000, 0.15, 0.15, 0.15)
	ws[1].seconds *= 3
	if got := timingsAtCalm(ws, 77000); math.Abs(got.updatesPerS-1000) > 1 {
		t.Errorf("updates_per_s with one stalled window in three = %v, want the median window's 1000", got.updatesPerS)
	}
	ws[2].seconds *= 3
	if got := timingsAtCalm(ws, 77000); math.Abs(got.updatesPerS-1000.0/3) > 1 {
		t.Errorf("updates_per_s with two stalled windows in three = %v, want 333", got.updatesPerS)
	}
	if got := hostSlowdown(math.NaN(), 77000); got != 1 {
		t.Errorf("slowdown of an unwatched stretch = %v, want 1", got)
	}
}

func TestCalmCostIsTheFirstPercentile(t *testing.T) {
	var samples []probeSample
	for i := 0; i < 300; i++ {
		samples = append(samples, probeSample{at: int64(i), cost: float64(1000 - i)}) // 701..1000
	}
	samples[17].cost = 5 // one freak reading must not become the reference
	if got := calmCost(samples); got != 703 {
		t.Errorf("calmCost = %v, want 703: the fourth cheapest of 300", got)
	}
	if got := calmCost(nil); got != 0 {
		t.Errorf("calmCost of nothing = %v, want 0", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the binary
// emits (the same tables `-list` prints), with their units, directions
// and bounds.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n BENCHMARK.json %v\n binary         %v", doc.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n binary         %v", doc.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n binary         %v", doc.PerLayer, perLayerSpecs)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// The smoke mode drives every workload through the same code paths as a
// full run — build, spawn, pin, set-up, measure, check, traced ladder —
// in a few seconds, so the harness cannot rot between benchmark runs.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns distserve; skipped with -short")
	}
	defer runCleanups()
	lay, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(lay)
	if err != nil {
		t.Fatal(err)
	}
	c := runConfig{seed: 1, seconds: defaultSeconds, smoke: true, bin: bin, lay: lay, plan: planCPUs()}
	for _, w := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			c.w, c.trace = w, trace
			res, err := runWorkload(&c)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if res.failed != 0 || len(res.problems) != 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.Name, trace, res.failed, res.attempted, res.problems)
			}
			specs := endToEndSpecs
			if trace {
				specs = perLayerSpecs
			}
			if len(res.metrics) != len(specs) {
				t.Errorf("%s (trace %v): %d metrics, the spec lists %d", w.Name, trace, len(res.metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (trace %v): metric %s = %v (present: %v)", w.Name, trace, m.Name, v, ok)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, v)
				}
			}
		}
	}
}
