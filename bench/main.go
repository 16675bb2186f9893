// Command bench is the repository's end-to-end and per-layer benchmark:
// it builds cmd/distserve, runs it pinned beside a closed-loop generator,
// and prints every metric by name and unit after checking the server's
// answers against exact references. See README.md in this directory.
//
// Usage:
//
//	go -C bench run .                         every workload, untraced then traced
//	go -C bench run . -smoke                  the same code paths in a few seconds
//	go -C bench run . -aa 3                   A/A: two interleaved sets of runs, compared
//	go -C bench run . -list                   the workloads and metrics, as JSON
//	go -C bench run . --workload W --seed N --seconds S --trace 0|1
//	                                          one run; the last line is its result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 13

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as the last line (driver mode)")
		seed         = flag.Int64("seed", 1, "input seed: equal seeds give byte-identical inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (counters and the traced ladder)")
		smoke        = flag.Bool("smoke", false, "three windows of measured work per workload: exercises the harness, measures nothing")
		aa           = flag.Int("aa", 0, "run the suite N times as set A and N times as set B, interleaved, and compare medians")
		list         = flag.Bool("list", false, "print the workload and metric names as JSON and exit")
		probeMode    = flag.Bool("probe", false, "internal: run as the host probe a benchmark run starts beside its server")
	)
	flag.Parse()

	if *probeMode {
		return probeMain()
	}

	if *list {
		doc := map[string]any{"workloads": workloadSpecs, "end_to_end": endToEndSpecs, "per_layer": perLayerSpecs}
		out, _ := json.MarshalIndent(doc, "", "  ") // plain structs of strings and floats cannot fail to marshal
		fmt.Println(string(out))
		return 0
	}

	defer runCleanups()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	lay, err := findLayout()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bin, err := buildServer(lay)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	plan := planCPUs()
	base := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, bin: bin, lay: lay, plan: plan,
		pinned: pinProcess([]int{plan.genCPU})}

	switch {
	case *workloadName != "":
		return driverRun(base, *workloadName, *trace == 1)
	case *aa > 0:
		return aaRun(base, *aa)
	}
	return suiteRun(base)
}

func lookupWorkload(name string) *workload {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// printResult prints a run's metrics by name and unit, in spec order,
// then its notes and problems.
func printResult(res *runResult, specs []metricSpec) {
	for _, m := range specs {
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, res.metrics[m.Name], m.Unit)
	}
	fmt.Printf("  %-36s %14d of %d\n", "failed ops", res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
}

// driverRun is one run as the benchmark driver asks for it: the last
// line of standard output is the result object. A violated check or a
// failed op still prints it, with "correct": false, and exits non-zero.
func driverRun(c runConfig, name string, trace bool) int {
	c.w = lookupWorkload(name)
	if c.w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	c.trace = trace
	res, err := runWorkload(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	specs := endToEndSpecs
	if trace {
		specs = perLayerSpecs
	}
	fmt.Printf("%s seed %d\n", name, c.seed)
	printResult(res, specs)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range specs {
		out.Metrics[m.Name] = value{res.metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// suiteRun runs every workload untraced and then traced, prints every
// metric, and fails if any check did.
func suiteRun(c runConfig) int {
	code := 0
	for _, w := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			c.w, c.trace = w, trace
			res, err := runWorkload(&c)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			specs, label := endToEndSpecs, "end to end"
			if trace {
				specs, label = perLayerSpecs, "per layer"
			}
			fmt.Printf("%s (%s, seed %d)\n", w.Name, label, c.seed)
			printResult(res, specs)
			if len(res.problems) > 0 {
				code = 1
			}
		}
	}
	return code
}
