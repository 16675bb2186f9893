package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/lintkit"
)

// ErrContract enforces the error conventions of the public facade and the
// service layer (the driver applies it to package repro and
// repro/internal/service):
//
//   - fmt.Errorf with an error-typed argument must wrap it with %w — %v/%s
//     break errors.Is/As chains, so ErrBusy, ErrNotFound, and friends stop
//     matching once a layer forgets to wrap;
//   - errors are never compared with == or != unless the other side is nil
//     or a sentinel (a package-level Err* variable or io.EOF); anything
//     else must use errors.Is, or wrapped errors silently stop matching;
//   - these packages report errors and never panic. Deliberate
//     exceptions (e.g. a provably unreachable branch) carry
//     //distlint:panic-ok with a justification.
var ErrContract = &lintkit.Analyzer{
	Name: "errcontract",
	Doc:  "enforce %w wrapping, errors.Is comparisons, and no-panic in facade/service code",
	Run:  runErrContract,
}

func runErrContract(pass *lintkit.Pass) error {
	esc := newEscapeLines(pass, "panic-ok")
	errType := types.Universe.Lookup("error").Type()
	for _, fd := range funcDecls(pass) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, n, errType)
				if isBuiltinCall(pass, n, "panic") && !esc.covers(pass.Fset, n.Pos()) {
					pass.Reportf(n.Pos(), "panic in error-reporting code; return an error (or annotate //distlint:panic-ok with a justification)")
				}
			case *ast.BinaryExpr:
				checkErrComparison(pass, n, errType)
			}
			return true
		})
	}
	return nil
}

// checkErrorfWrap reports fmt.Errorf calls whose error-typed arguments are
// not all wrapped with %w.
func checkErrorfWrap(pass *lintkit.Pass, call *ast.CallExpr, errType types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.FullName() != "fmt.Errorf" || len(call.Args) < 2 {
		return
	}
	format, ok := constantString(pass, call.Args[0])
	if !ok {
		return
	}
	wraps := strings.Count(strings.ReplaceAll(format, "%%", ""), "%w")
	errArgs := 0
	for _, a := range call.Args[1:] {
		if t := pass.TypesInfo.Types[a].Type; t != nil && types.AssignableTo(t, errType) && !isNilExpr(pass, a) {
			errArgs++
		}
	}
	if errArgs > wraps {
		pass.Reportf(call.Pos(), "fmt.Errorf with an error argument but no %%w: wrap the error so errors.Is/As keep matching")
	}
}

// checkErrComparison reports ==/!= between errors unless one side is nil or
// a sentinel.
func checkErrComparison(pass *lintkit.Pass, b *ast.BinaryExpr, errType types.Type) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	tx := pass.TypesInfo.Types[b.X].Type
	ty := pass.TypesInfo.Types[b.Y].Type
	if tx == nil || ty == nil {
		return
	}
	if !types.Identical(tx, errType) && !types.Identical(ty, errType) {
		return
	}
	if isNilExpr(pass, b.X) || isNilExpr(pass, b.Y) {
		return
	}
	if isSentinel(pass, b.X) || isSentinel(pass, b.Y) {
		return
	}
	pass.Reportf(b.OpPos, "non-sentinel errors compared with %s: use errors.Is, which matches through %%w wrapping", b.Op)
}

// isSentinel reports whether e denotes a package-level error variable
// following the sentinel convention (Err* prefix, or io.EOF).
func isSentinel(pass *lintkit.Pass, e ast.Expr) bool {
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	return strings.HasPrefix(v.Name(), "Err") || v.Name() == "EOF"
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// constantString returns e's constant string value.
func constantString(pass *lintkit.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
