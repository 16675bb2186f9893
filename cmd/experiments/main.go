// Command experiments regenerates the paper's evaluation: every figure and
// table from Section 6 and the appendix's P4 study, printed as plain-text
// tables.
//
// Usage:
//
//	experiments [-quick] [-only fig1,table1,fig2,...] [-protocol p1,p2,...]
//	            [-hh-n N] [-mat-n N] [-sites M] [-seed S] [-v] [-plot]
//
// -only selects experiments by key, case-insensitively; an unknown key
// exits 2 before any sweep runs.
//
// -protocol restricts every sweep to a comma-separated subset of the
// registered protocol names (distmat.HHProtocols / distmat.MatrixProtocols);
// the default is the paper's p1,p2,p3,p4.
//
// With no flags it runs the full default-scale suite (a few minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	distmat "repro"
	"repro/internal/experiments"
)

// experiment is one -only key and the tables it prints.
type experiment struct {
	key string
	run func(*experiments.Runner) []experiments.Table
}

// catalogue lists every experiment in paper order; it drives both the run
// loop and -only validation.
var catalogue = []experiment{
	{"fig1", (*experiments.Runner).Fig1},
	{"table1", func(r *experiments.Runner) []experiments.Table { return []experiments.Table{r.Table1()} }},
	{"fig2", (*experiments.Runner).Fig2},
	{"fig3", (*experiments.Runner).Fig3},
	{"fig4", (*experiments.Runner).Fig4},
	{"fig6", (*experiments.Runner).Fig6},
	{"fig7", (*experiments.Runner).Fig7},
	{"stability", (*experiments.Runner).Stability},
}

// selectExperiments parses an -only value into catalogue entries, in
// catalogue order. An empty value selects every experiment; an unknown
// key is an error naming it.
func selectExperiments(arg string) ([]experiment, error) {
	wanted := map[string]bool{}
	for _, k := range strings.Split(arg, ",") {
		k = strings.ToLower(strings.TrimSpace(k))
		if k == "" {
			continue
		}
		if !slices.ContainsFunc(catalogue, func(e experiment) bool { return e.key == k }) {
			return nil, fmt.Errorf("unknown experiment %q", k)
		}
		wanted[k] = true
	}
	if len(wanted) == 0 {
		return catalogue, nil
	}
	var out []experiment
	for _, e := range catalogue {
		if wanted[e.key] {
			out = append(out, e)
		}
	}
	return out, nil
}

// splitProtocols parses and registry-validates a -protocol flag value,
// returning the subset valid for each problem.
func splitProtocols(arg string) (hhNames, matNames []string, err error) {
	for _, name := range strings.Split(arg, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		_, isHH := distmat.LookupHHProtocol(name)
		_, isMat := distmat.LookupMatrixProtocol(name)
		if !isHH && !isMat {
			return nil, nil, fmt.Errorf("unknown protocol %q (heavy-hitters: %v; matrix: %v)",
				name, distmat.HHProtocols(), distmat.MatrixProtocols())
		}
		if isHH {
			hhNames = append(hhNames, name)
		}
		if isMat {
			matNames = append(matNames, name)
		}
	}
	return hhNames, matNames, nil
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "run at test scale (seconds instead of minutes)")
		only     = flag.String("only", "", "comma-separated subset: fig1,table1,fig2,fig3,fig4,fig6,fig7,stability")
		protocol = flag.String("protocol", "", "comma-separated registry protocol names to sweep (default: the paper's p1,p2,p3,p4)")
		hhN      = flag.Int("hh-n", 0, "override heavy-hitters stream length (paper: 10000000)")
		matN     = flag.Int("mat-n", 0, "override matrix stream rows (paper: 629250/300000)")
		sites    = flag.Int("sites", 0, "override default site count m (paper: 50)")
		seed     = flag.Int64("seed", 0, "override random seed (default: the config's)")
		verbose  = flag.Bool("v", false, "log per-run progress to stderr")
		plots    = flag.Bool("plot", false, "also render sweep tables as ASCII log-log charts")
	)
	flag.Parse()

	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *protocol != "" {
		hhNames, matNames, err := splitProtocols(*protocol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		if len(hhNames) > 0 {
			cfg.HHProtos = hhNames
		}
		if len(matNames) > 0 {
			cfg.MatProtos = matNames
		}
	}
	if *hhN > 0 {
		cfg.HHItems = *hhN
	}
	if *matN > 0 {
		cfg.MatRows = *matN
	}
	if *sites > 0 {
		cfg.Sites = *sites
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.Seed = *seed
		}
	})
	if *verbose {
		cfg.Progress = os.Stderr
	}

	r := experiments.NewRunner(cfg)
	for _, e := range selected {
		for _, t := range e.run(r) {
			t.Render(os.Stdout)
			if *plots && t.Chartable {
				if c, err := t.Chart(); err == nil {
					if err := c.Render(os.Stdout); err != nil {
						fmt.Fprintf(os.Stderr, "experiments: chart %s: %v\n", t.ID, err)
					}
					fmt.Println()
				}
			}
		}
	}
}
