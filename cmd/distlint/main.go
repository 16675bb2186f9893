// Command distlint runs the project's static-analysis suite — the seven
// analyzers in internal/analysis that enforce the assembly-spec, hot-path
// allocation, mutex-guard, snapshot-purity, unreachable-code,
// error-contract, and worker-lifecycle conventions declared with
// //distlint: directives.
//
// Usage:
//
//	distlint [flags] [packages]
//
// Packages default to ./... . Run it from the module root: whatever the
// packages, the unreachable analyzer counts references to exported
// functions and methods from every package of the module, from the
// Examples of its external test packages and from every package of the
// benchmark module in bench/, so all three are always loaded. distlint exits 1 when it reports findings, so `make lint` and CI
// fail on contract violations. Dependency types come from the build cache;
// run `go build ./...` first on a cold cache.
//
//	-list       print the analyzers and their docs, then exit
//	-exit-zero  report findings but exit 0 (for surveying a new annotation)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/lintkit"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and their docs, then exit")
	exitZero := flag.Bool("exit-zero", false, "report findings but exit 0")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lintkit.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fail(err)
	}
	program, err := analysis.LoadProgram("")
	if err != nil {
		fail(err)
	}

	diags, err := lintkit.RunSuite(pkgs, program, analysis.Suite)
	if err != nil {
		fail(err)
	}
	for _, d := range diags {
		fmt.Println(lintkit.FormatDiagnostic(loader.Fset, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "distlint: %d finding(s)\n", len(diags))
		if !*exitZero {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "distlint:", err)
	os.Exit(2)
}
