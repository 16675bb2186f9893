package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"

	"repro/internal/analysis/lintkit"
)

// AsmSpec holds every function declared without a body — an assembly
// kernel — to the rule of CONTRIBUTING "Kernels" that a portable Go body
// defines its result and a test compares the two. The declaration carries
//
//	//distlint:spec <spec func> <Test|Fuzz name>
//
// naming a function with a body and a Test* or Fuzz* function declared in a
// _test.go file of the package's directory. A function with a body — a
// fast Go or unsafe body held to a slower one — may carry the same
// directive and is checked the same way. The spec is a package-level
// function or a method spelled T.m, declared in the package or in one of
// its _test.go files (where a replaced body is kept). lintkit loads no test
// files, so those are parsed here, for their top-level names only. A
// declaration with no portable twin (a CPU-feature probe) says so, with a
// reason: //distlint:spec none <reason>.
var AsmSpec = &lintkit.Analyzer{
	Name: "asmspec",
	Doc:  "require every function declared without a body, and check every function that names one, to name its spec and the test comparing them",
	Run:  runAsmSpec,
}

func runAsmSpec(pass *lintkit.Pass) error {
	// cmd/distlint loads no test files and the fixture loader does; either
	// way the package's own declarations are its non-test files'.
	var files []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	hasBody := map[string]bool{} // funcKey → declared with a body
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				hasBody[funcKey(fd)] = fd.Body != nil
			}
		}
	}
	testsIn := map[string]map[string]bool{} // directory → funcKeys of its _test.go files
	for _, f := range files {
		dir := filepath.Dir(pass.Fset.Position(f.Pos()).Filename)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := funcKey(fd)
			arg, ok := directiveArg(fd.Doc, "spec")
			if !ok {
				if fd.Body == nil {
					pass.Reportf(fd.Name.Pos(), "%s has no body and no //distlint:spec <portable func> <Test|Fuzz name>", name)
				}
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
			if testsIn[dir] == nil {
				testsIn[dir] = testFuncs(dir)
			}
			tests := testsIn[dir]
			if body, inPkg := hasBody[spec]; !inPkg && !tests[spec] {
				pass.Reportf(fd.Name.Pos(), "%s: spec function %s is not declared in package %s or its tests", name, spec, pass.Pkg.Name())
			} else if inPkg && !body {
				pass.Reportf(fd.Name.Pos(), "%s: spec function %s has no body of its own", name, spec)
			}
			if !strings.HasPrefix(test, "Test") && !strings.HasPrefix(test, "Fuzz") {
				pass.Reportf(fd.Name.Pos(), "%s: %s is not a Test or Fuzz function", name, test)
				continue
			}
			if !tests[test] {
				pass.Reportf(fd.Name.Pos(), "%s: no _test.go file in %s declares %s", name, dir, test)
			}
		}
	}
	return nil
}

// funcKey names a declaration as a spec directive spells it: f for a
// function, T.m for a method on T or *T (generic or not).
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// testFuncs returns the funcKeys of the declarations in dir's _test.go
// files, whatever their build constraints. A file that does not parse
// contributes nothing; the compiler reports it.
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
			if fd, ok := decl.(*ast.FuncDecl); ok {
				names[funcKey(fd)] = true
			}
		}
	}
	return names
}
