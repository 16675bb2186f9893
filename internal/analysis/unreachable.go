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

// Unreachable flags every exported function and exported method that no
// root of the program reaches: code kept alive only by its own tests, or
// by nothing. The roots are the non-test files of the program and the
// bodies of the func Example… in its test files. A reference from inside
// the function's or method's own body does not count. The driver applies
// it to the packages under internal/ and to the facade, and builds the
// program with LoadProgram — the whole module, its external tests'
// examples, and the separate bench/ module, so a function whose only
// caller is the benchmark is reachable.
//
// A method is reached when a root names it in a selector — a call, a
// method value, a method expression, or a promotion through an embedded
// field — or when its name and its parameter and result types match a
// method of an interface type: one declared in a non-test file of a
// program package or of any package they import, or written as an
// interface literal in one. That keeps String, Error, Read and the other
// methods only an interface call or reflection reaches. Packages loaded by
// different loaders share no objects, so methods are matched by receiver
// type name and method name, and signatures by their type strings without
// parameter names; a method of a generic type or of a generic interface,
// whose signature may mention type parameters, matches by name alone.
//
// A function or method that is kept on purpose — say, a helper several
// packages' tests share — carries //distlint:unreachable-ok <why> in its doc
// comment; the directive without a reason is itself a finding. References
// are read from the files of the build the driver loads (the host
// platform, no build tags).
var Unreachable = &lintkit.Analyzer{
	Name: "unreachable",
	Doc:  "flag exported functions and methods that no non-test file or Example of the module or bench/ reaches",
	Run:  runUnreachable,
}

// benchModule is the benchmark's module directory under the module root:
// its own go.mod, compiled against this module, and a caller of internal/
// packages like any command here.
const benchModule = "bench"

// LoadProgram loads the program Unreachable counts references from: every
// package of the module rooted at dir ("" for the working directory), the
// examples of their external tests and, when dir holds one, every package
// of the benchmark module.
func LoadProgram(dir string) ([]*lintkit.Package, error) {
	l := lintkit.NewLoader(dir)
	pkgs, err := l.Load("./...")
	if err != nil {
		return nil, err
	}
	examples, err := l.LoadExamples(pkgs)
	if err != nil {
		return nil, err
	}
	pkgs = append(pkgs, examples...)
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
	ifaces := interfaceMethods(pass.Program)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			name := objKey(fn)
			if why, ok := directiveArg(fd.Doc, "unreachable-ok"); ok {
				if why == "" {
					pass.Reportf(fd.Name.Pos(), "%s: //distlint:unreachable-ok needs a reason", name)
				}
				continue
			}
			if used[name] || fd.Recv != nil && ifaces.satisfies(fn) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s is exported but no non-test file references it: delete it, or keep it with //distlint:unreachable-ok <why>", name)
		}
	}
	return nil
}

// referenced returns the keys (objKey) of the functions and methods of
// package path that a root of the program uses, leaving out each one's
// uses of itself from inside its own declaration.
func referenced(program []*lintkit.Package, path string) map[string]bool {
	used := map[string]bool{}
	for _, pkg := range program {
		for _, f := range pkg.Files {
			test := isTestFile(pkg.Fset, f)
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
					if test && (fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Example")) {
						continue
					}
				} else if test {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if ok && fn.Pkg() != nil && fn.Pkg().Path() == path && declared(fn) != self {
						used[objKey(fn)] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// objKey names a function the same way in every load of its package: F
// for a function, T.M for a method of the named type T (generic or not,
// through a pointer or not).
func objKey(fn *types.Func) string {
	if n := recvNamed(fn); n != nil {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// recvNamed returns the named type fn is a method of, through a pointer or
// not: nil for a function or for a method of an interface literal.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// ifaceMethods is every interface method of the program, keyed by sigKey;
// generic holds the names of the methods of generic interfaces, whose
// signatures mention type parameters and so match by name alone.
type ifaceMethods struct {
	sigs, generic map[string]bool
}

// sigKey is a method's name and its signature's type string without
// parameter names: Read(buf []byte) (n int, err error) keys as
// "Read func([]byte) (int, error)".
func sigKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return fn.Name() + " " + types.TypeString(bare, nil)
}

// genericRecv reports whether fn is a method of an uninstantiated generic
// type, whose signature may mention the type's parameters.
func genericRecv(fn *types.Func) bool {
	n := recvNamed(fn)
	return n != nil && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0
}

// satisfies reports whether the method matches some interface method: by
// name and signature, or by name alone when either side is generic.
func (im ifaceMethods) satisfies(fn *types.Func) bool {
	if im.generic[fn.Name()] || im.sigs[sigKey(fn)] {
		return true
	}
	if genericRecv(fn) {
		for key := range im.sigs {
			if strings.HasPrefix(key, fn.Name()+" ") {
				return true
			}
		}
	}
	return false
}

// interfaceMethods returns the methods of every interface type that the
// program's non-test files declare or write as a literal, and of every
// interface type declared by a package they import, directly or not.
func interfaceMethods(program []*lintkit.Package) ifaceMethods {
	im := ifaceMethods{sigs: map[string]bool{}, generic: map[string]bool{}}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := range it.NumMethods() {
			if m := it.Method(i); genericRecv(m) {
				im.generic[m.Name()] = true
			} else {
				im.sigs[sigKey(m)] = true
			}
		}
	}
	seen := map[string]bool{}
	var imported func(*types.Package)
	imported = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			imported(q)
		}
	}
	for _, pkg := range program {
		for expr, tv := range pkg.Info.Types {
			if tv.IsType() && !isTestPos(pkg.Fset, expr.Pos()) {
				add(tv.Type)
			}
		}
		for _, q := range pkg.Types.Imports() {
			imported(q)
		}
	}
	return im
}

// isTestFile reports whether f is a _test.go file. The driver loads one
// only for its examples; fixtures load theirs.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return isTestPos(fset, f.Pos())
}

func isTestPos(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
