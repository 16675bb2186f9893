// Command distlint runs the project's static-analysis suite — the six
// analyzers in internal/analysis that enforce the assembly-spec, hot-path
// allocation, mutex-guard, snapshot-purity, error-contract, and
// worker-lifecycle conventions declared with //distlint: directives.
//
// Usage:
//
//	distlint [flags] [packages]
//
// Packages default to ./... . distlint exits 1 when it reports findings,
// so `make lint` and CI fail on contract violations. Dependency types come
// from the build cache; run `go build ./...` first on a cold cache.
//
//	-list       print the analyzers and their docs, then exit
//	-exit-zero  report findings but exit 0 (for surveying a new annotation)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
		fmt.Fprintln(os.Stderr, "distlint:", err)
		os.Exit(2)
	}

	var diags []lintkit.Diagnostic
	for _, pkg := range pkgs {
		// Skip the analysis suite itself and its fixtures: fixture sources
		// under testdata are not listed, but the analyzers' own test files
		// deliberately violate the contracts they document.
		if strings.HasPrefix(pkg.ImportPath, "repro/internal/analysis") {
			continue
		}
		ds, err := lintkit.Run([]*lintkit.Package{pkg}, analysis.Suite(pkg.ImportPath))
		if err != nil {
			fmt.Fprintln(os.Stderr, "distlint:", err)
			os.Exit(2)
		}
		diags = append(diags, ds...)
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
