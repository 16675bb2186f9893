package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis/lintkit"
)

// AsmSpec holds every function declared without a body — an assembly
// kernel — to the rule of CONTRIBUTING "Kernels" that a portable Go body
// defines its result and a test compares the two. The declaration carries
//
//	//distlint:spec <portable func> <Test|Fuzz name>
//
// naming a package-level function with a body and a Test* or Fuzz* function
// declared in a _test.go file of the package's directory. lintkit loads no
// test files, so those are parsed here, for their top-level names only. A
// declaration with no portable twin (a CPU-feature probe) says so, with a
// reason: //distlint:spec none <reason>.
var AsmSpec = &lintkit.Analyzer{
	Name: "asmspec",
	Doc:  "require every function declared without a body to name its portable spec and the test comparing them",
	Run:  runAsmSpec,
}

func runAsmSpec(pass *lintkit.Pass) error {
	bodiless := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body == nil && fd.Recv == nil {
				bodiless[fd.Name.Name] = true
			}
		}
	}
	testsIn := map[string]map[string]bool{} // directory → test function names
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body != nil {
				continue
			}
			name := fd.Name.Name
			arg, ok := directiveArg(fd.Doc, "spec")
			if !ok {
				pass.Reportf(fd.Name.Pos(), "%s has no body and no //distlint:spec <portable func> <Test|Fuzz name>", name)
				continue
			}
			fields := strings.Fields(arg)
			if len(fields) > 0 && fields[0] == "none" {
				if len(fields) == 1 {
					pass.Reportf(fd.Name.Pos(), "%s: //distlint:spec none needs a reason", name)
				}
				continue
			}
			if len(fields) != 2 {
				pass.Reportf(fd.Name.Pos(), "%s: //distlint:spec wants <portable func> <Test|Fuzz name>, got %q", name, arg)
				continue
			}
			spec, test := fields[0], fields[1]
			if _, isFunc := pass.Pkg.Scope().Lookup(spec).(*types.Func); !isFunc {
				pass.Reportf(fd.Name.Pos(), "%s: spec function %s is not declared in package %s", name, spec, pass.Pkg.Name())
			} else if bodiless[spec] {
				pass.Reportf(fd.Name.Pos(), "%s: spec function %s has no body of its own", name, spec)
			}
			if !strings.HasPrefix(test, "Test") && !strings.HasPrefix(test, "Fuzz") {
				pass.Reportf(fd.Name.Pos(), "%s: %s is not a Test or Fuzz function", name, test)
				continue
			}
			dir := filepath.Dir(pass.Fset.Position(f.Pos()).Filename)
			if testsIn[dir] == nil {
				testsIn[dir] = testFuncs(dir)
			}
			if !testsIn[dir][test] {
				pass.Reportf(fd.Name.Pos(), "%s: no _test.go file in %s declares %s", name, dir, test)
			}
		}
	}
	return nil
}

// testFuncs returns the names of the top-level functions declared in dir's
// _test.go files, whatever their build constraints. A file that does not
// parse contributes nothing; the compiler reports it.
func testFuncs(dir string) map[string]bool {
	names := map[string]bool{}
	paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	fset := token.NewFileSet()
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names[fd.Name.Name] = true
			}
		}
	}
	return names
}
