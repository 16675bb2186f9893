package analysis

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// WorkerLifecycle checks that worker goroutines have a reachable shutdown
// path (the driver applies it to repro/internal/core and
// repro/internal/service, the two packages that spawn long-lived workers).
// A goroutine that receives from a channel must either
//
//   - select on a done-style channel in a clause that returns (the hosted
//     Tracker's `case <-t.closed: return` idiom), or
//   - range over a channel whose origin is close()d somewhere in the
//     package (the ShardedTracker's `for b := range st.queues[i]` fed by
//     Close's `for _, q := range st.queues { close(q) }`).
//
// Otherwise the goroutine leaks on shutdown: it blocks in its receive
// forever, pinning its stack and whatever state it captured. Launches whose
// shutdown is handled by some mechanism the analyzer cannot see are waived
// with //distlint:lifecycle-ok on the go statement's line.
//
// Resolution is same-package and one level deep: `go st.worker(i)` is
// followed into worker's declaration with arguments substituted for
// parameters, and close() targets are traced through one local alias
// (a range variable or a simple assignment) to the field they came from.
var WorkerLifecycle = &lintkit.Analyzer{
	Name: "workerlifecycle",
	Doc:  "report worker goroutines with no reachable close/Stop/done shutdown path",
	Run:  runWorkerLifecycle,
}

type lifecycle struct {
	pass *lintkit.Pass
	// aliases maps a local variable to the object its channel value came
	// from (one dataflow step: range value vars and simple assignments).
	aliases map[types.Object]types.Object
	// closed holds the origin objects of every close() target in the package.
	closed map[types.Object]bool
	// decls indexes this package's function declarations by their object.
	decls map[types.Object]*ast.FuncDecl
}

func runWorkerLifecycle(pass *lintkit.Pass) error {
	lc := &lifecycle{
		pass:    pass,
		aliases: map[types.Object]types.Object{},
		closed:  map[types.Object]bool{},
		decls:   map[types.Object]*ast.FuncDecl{},
	}
	lc.collectFacts()
	esc := newEscapeLines(pass, "lifecycle-ok")
	for _, fd := range funcDecls(pass) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if esc.covers(pass.Fset, g.Pos()) {
				return true
			}
			lc.checkLaunch(g)
			return true
		})
	}
	return nil
}

// collectFacts builds the alias map, the closed-origin set, and the
// declaration index in one pass over the package.
func (lc *lifecycle) collectFacts() {
	for _, f := range lc.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if obj := lc.pass.TypesInfo.Defs[n.Name]; obj != nil && n.Body != nil {
					lc.decls[obj] = n
				}
			case *ast.RangeStmt:
				if id, ok := n.Value.(*ast.Ident); ok {
					if obj := lc.pass.TypesInfo.Defs[id]; obj != nil {
						if origin := lc.origin(n.X, nil); origin != nil {
							lc.aliases[obj] = origin
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := lc.pass.TypesInfo.Defs[id]
						if obj == nil {
							obj = lc.pass.TypesInfo.Uses[id]
						}
						if obj == nil {
							continue
						}
						if origin := lc.origin(n.Rhs[i], nil); origin != nil && origin != obj {
							lc.aliases[obj] = origin
						}
					}
				}
			case *ast.CallExpr:
				if isBuiltinCall(lc.pass, n, "close") && len(n.Args) == 1 {
					if origin := lc.origin(n.Args[0], nil); origin != nil {
						lc.closed[origin] = true
					}
				}
			}
			return true
		})
	}
}

// origin resolves an expression to the object its value originates from,
// stripping indexing/slicing/parens, resolving struct-field selections to
// the field object, and following local aliases (bounded). subst maps
// parameter objects to caller argument expressions for one inlining level;
// a nil map means no substitution.
func (lc *lifecycle) origin(e ast.Expr, subst map[types.Object]ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := lc.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return declared(sel.Obj())
			}
			e = x.X
		case *ast.Ident:
			obj := lc.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = lc.pass.TypesInfo.Defs[x]
			}
			if obj == nil {
				return nil
			}
			if arg, ok := subst[obj]; ok {
				return lc.origin(arg, nil)
			}
			for i := 0; i < 4; i++ {
				next, ok := lc.aliases[obj]
				if !ok {
					break
				}
				obj = next
			}
			return obj
		default:
			return nil
		}
	}
}

// checkLaunch resolves one go statement to a function body and verifies its
// shutdown path.
func (lc *lifecycle) checkLaunch(g *ast.GoStmt) {
	body, subst := lc.resolveTarget(g.Call)
	if body == nil {
		return
	}
	recv, ranged := lc.channelOps(body)
	if !recv && len(ranged) == 0 {
		return
	}
	if hasDoneSelect(body) {
		return
	}
	for _, r := range ranged {
		if origin := lc.origin(r, subst); origin != nil && lc.closed[origin] {
			return
		}
	}
	lc.pass.Reportf(g.Pos(), "goroutine receives from a channel but has no reachable shutdown path (no done-channel select, and its input channel is never closed); add one or annotate //distlint:lifecycle-ok")
}

// resolveTarget returns the launched function's body and a parameter→
// argument substitution map. Function literals resolve directly; calls to
// same-package functions and methods resolve through their declaration.
func (lc *lifecycle) resolveTarget(call *ast.CallExpr) (*ast.BlockStmt, map[types.Object]ast.Expr) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return lit.Body, nil
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = lc.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = lc.pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil, nil
	}
	fd, ok := lc.decls[declared(obj)]
	if !ok {
		return nil, nil
	}
	subst := map[types.Object]ast.Expr{}
	i := 0
	for _, p := range fd.Type.Params.List {
		for _, name := range p.Names {
			if i < len(call.Args) {
				if pobj := lc.pass.TypesInfo.Defs[name]; pobj != nil {
					subst[pobj] = call.Args[i]
				}
			}
			i++
		}
	}
	return fd.Body, subst
}

// channelOps reports whether the body contains channel receives and returns
// the expressions it ranges over that have channel type.
func (lc *lifecycle) channelOps(body *ast.BlockStmt) (recv bool, ranged []ast.Expr) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				recv = true
			}
		case *ast.RangeStmt:
			if t := lc.pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					recv = true
					ranged = append(ranged, n.X)
				}
			}
		}
		return true
	})
	return recv, ranged
}

// hasDoneSelect reports whether the body contains a select with a receive
// clause that returns — the done-channel shutdown idiom.
func hasDoneSelect(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return !found
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil || !isReceiveComm(cc.Comm) {
				continue
			}
			if containsReturn(cc.Body) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isReceiveComm reports whether a select comm statement is a channel receive.
func isReceiveComm(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			u, ok := s.Rhs[0].(*ast.UnaryExpr)
			return ok && u.Op.String() == "<-"
		}
	}
	return false
}

// containsReturn reports whether the statement list contains a return.
func containsReturn(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.ReturnStmt); ok {
				found = true
			}
			_, isLit := n.(*ast.FuncLit)
			return !found && !isLit
		})
	}
	return found
}
