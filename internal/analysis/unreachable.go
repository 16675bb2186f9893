package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/lintkit"
)

// Unreachable flags every exported package-level function that no non-test
// file of the program references: code kept alive only by its own tests,
// or by nothing. A reference from inside the function's own body does not
// count. The driver applies it to the packages under internal/ and builds
// the program with LoadProgram — the whole module plus the separate bench/
// module, so a function whose only caller is the benchmark is reachable.
// Methods are out of scope: tests legitimately read accessors, and a type
// whose constructors are all gone is caught through its constructors.
//
// A function that is kept on purpose — say, a helper several packages'
// tests share — carries //distlint:unreachable-ok <why> in its doc comment;
// the directive without a reason is itself a finding. References are read
// from the files of the build the driver loads (the host platform, no build
// tags).
var Unreachable = &lintkit.Analyzer{
	Name: "unreachable",
	Doc:  "flag exported package-level functions that no non-test file of the module or bench/ references",
	Run:  runUnreachable,
}

// benchModule is the benchmark's module directory under the module root:
// its own go.mod, compiled against this module, and a caller of internal/
// packages like any command here.
const benchModule = "bench"

// LoadProgram loads the program Unreachable counts references from: every
// package of the module rooted at dir ("" for the working directory) and,
// when dir holds one, of the benchmark module.
func LoadProgram(dir string) ([]*lintkit.Package, error) {
	pkgs, err := lintkit.NewLoader(dir).Load("./...")
	if err != nil {
		return nil, err
	}
	bench := filepath.Join(dir, benchModule)
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err != nil {
		return pkgs, nil
	}
	benchPkgs, err := lintkit.NewLoader(bench).Load("./...")
	if err != nil {
		return nil, err
	}
	return append(pkgs, benchPkgs...), nil
}

func runUnreachable(pass *lintkit.Pass) error {
	used := referenced(pass.Program, pass.Pkg.Path())
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if why, ok := directiveArg(fd.Doc, "unreachable-ok"); ok {
				if why == "" {
					pass.Reportf(fd.Name.Pos(), "%s: //distlint:unreachable-ok needs a reason", name)
				}
				continue
			}
			if !used[name] {
				pass.Reportf(fd.Name.Pos(), "%s is exported but no non-test file references it: delete it, or keep it with //distlint:unreachable-ok <why>", name)
			}
		}
	}
	return nil
}

// referenced returns the names of the package-level functions of package
// path that some non-test file of the program uses, leaving out each
// function's uses of itself from inside its own declaration.
func referenced(program []*lintkit.Package, path string) map[string]bool {
	used := map[string]bool{}
	for _, pkg := range program {
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != path || declared(fn) == self {
						return true
					}
					if fn.Type().(*types.Signature).Recv() == nil {
						used[fn.Name()] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// isTestFile reports whether f is a _test.go file. The driver loads none;
// fixtures load theirs.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
