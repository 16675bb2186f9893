// Package lintkit is the minimal analysis framework distlint runs on: a
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// surface the project's analyzers need (Analyzer, Pass, Diagnostic), a
// package loader that type-checks module source against the build cache's
// export data, and an analysistest-style fixture harness (fixture.go).
//
// The x/tools module is deliberately not imported: the repository builds
// with the standard library alone, and the API here mirrors go/analysis
// closely enough that the analyzers port mechanically if that dependency
// ever becomes available.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check, named like its go/analysis counterpart.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "hotpathalloc".
	Name string
	// Doc is the one-paragraph description `distlint -list` prints.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program is every package of the run, the analyzed one included, for
	// a check that needs to see who uses the package. Packages loaded by
	// different Loaders have different FileSets and distinct objects for
	// the same declaration: compare objects by package path and name.
	Program []*Package

	report func(Diagnostic)
}

// Report emits one diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Run applies each analyzer to each package and returns every diagnostic,
// sorted by file position. The packages are also each pass's Program.
// Analyzer errors (not findings) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunSuite(pkgs, pkgs, func(string) []*Analyzer { return analyzers })
}

// RunSuite applies to each target package the analyzers suite returns for
// its import path, with program as every pass's Program, and returns every
// diagnostic sorted by file position. Analyzer errors (not findings) abort
// the run.
func RunSuite(targets, program []*Package, suite func(importPath string) []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range targets {
		for _, a := range suite(pkg.ImportPath) {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Program:   program,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	fset := token.NewFileSet()
	if len(targets) > 0 {
		fset = targets[0].Fset
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
