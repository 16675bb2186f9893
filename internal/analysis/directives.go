// Package analysis is distlint: the project-specific static-analysis suite
// that mechanically enforces the codebase's unwritten contracts — zero-alloc
// steady-state hot paths, mutex-guarded shared state, deep-copied snapshots,
// sentinel-error wrapping, worker-goroutine lifecycles, a spec body and a
// differential test for every assembly or unsafe fast body, and no
// exported function or method in the facade or under internal/ that no
// program reaches. The analyzers
// run on lintkit (a stdlib-only go/analysis workalike) through the
// cmd/distlint driver, which `make lint` and CI invoke on every package.
//
// Contracts are declared in source with //distlint: directive comments:
//
//	//distlint:hotpath          (function) steady state must not allocate
//	//distlint:alloc-ok         (line) permitted allocation, e.g. pool growth
//	//distlint:guarded-by mu    (struct field) only touch with mu held
//	//distlint:caller-holds mu  (function) lock discipline is the caller's
//	//distlint:spec f TestX     (function) spec body and its test; required without a body
//	//distlint:alias-ok         (line) permitted snapshot aliasing
//	//distlint:panic-ok         (line) permitted panic, e.g. unreachable
//	//distlint:lifecycle-ok     (line) goroutine shutdown handled elsewhere
//	//distlint:unreachable-ok   (function or method) kept with no non-test caller; why
//
// Escape-hatch directives apply to their own line and, when written as a
// standalone comment line, to the line directly below; every hatch should
// carry a justification after the directive. See CONTRIBUTING.md for the
// full vocabulary and policy.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/lintkit"
)

// directivePrefix introduces every distlint annotation. Directive comments
// (no space after //) survive gofmt and are excluded from godoc text.
const directivePrefix = "//distlint:"

// directives returns the distlint directive lines in a comment group, with
// the prefix stripped: "//distlint:guarded-by mu" yields "guarded-by mu".
func directives(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	var out []string
	for _, c := range cg.List {
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			out = append(out, strings.TrimSpace(rest))
		}
	}
	return out
}

// hasDirective reports whether the comment group carries the named
// directive (exactly, ignoring any argument).
func hasDirective(cg *ast.CommentGroup, name string) bool {
	for _, d := range directives(cg) {
		if d == name || strings.HasPrefix(d, name+" ") {
			return true
		}
	}
	return false
}

// directiveArg returns the argument of the named directive in the group
// ("guarded-by mu" → "mu"), and whether the directive is present.
func directiveArg(cg *ast.CommentGroup, name string) (string, bool) {
	for _, d := range directives(cg) {
		if rest, ok := strings.CutPrefix(d, name); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// escapeLines collects the lines covered by an escape-hatch directive such
// as "alloc-ok": the directive's own line (trailing-comment form) and the
// line below it (standalone-comment form). Keys are file base positions, so
// the map is valid across all files of the pass.
type escapeLines map[string]map[int]bool

// newEscapeLines scans the pass's files for the named directive.
func newEscapeLines(pass *lintkit.Pass, name string) escapeLines {
	esc := escapeLines{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix+name)
				if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				lines := esc[pos.Filename]
				if lines == nil {
					lines = map[int]bool{}
					esc[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return esc
}

// covers reports whether pos falls on an escaped line.
func (e escapeLines) covers(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return e[p.Filename][p.Line]
}

// funcDecls yields every function declaration with a body in the pass.
func funcDecls(pass *lintkit.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// declared maps a field or method reached through an instantiated generic
// type (e.queues on an *eng[B] receiver, l.run on a *leakyEng[int]) back to
// the object its declaration defines. go/types gives every instantiation
// its own copy of each member whose type mentions a type parameter, so
// facts keyed by declaration objects must be looked up through this.
func declared(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}
