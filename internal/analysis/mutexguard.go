package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/lintkit"
)

// MutexGuard enforces the locking contract on fields annotated
// //distlint:guarded-by <mu> (the Accountant's stats, the service Manager's
// tracker map, the hosted Tracker's session): every access to a guarded
// field must happen while the named sibling mutex is held in the enclosing
// function.
//
// Lock state is tracked by a conservative walk of each function body in
// source order: mu.Lock()/mu.RLock() acquire, mu.Unlock()/mu.RUnlock()
// release, defer mu.Unlock() holds to function exit, and branches that end
// in return/panic do not leak their lock state past the branch (the
// lock–check–unlock-early-return idiom). Functions whose name ends in
// "Locked" and functions annotated //distlint:caller-holds <mu> are assumed
// to run with the lock held; goroutine bodies start with no locks held.
// The analysis is intraprocedural and textual about receivers: accesses and
// lock calls match when their base expression renders identically (t.mu
// guards t.sess, not other.sess).
var MutexGuard = &lintkit.Analyzer{
	Name: "mutexguard",
	Doc:  "report accesses to //distlint:guarded-by fields without the named mutex held",
	Run:  runMutexGuard,
}

// guardedField records one annotated struct field and its mutex's name.
type guardedField struct {
	fieldName string
	mu        string
}

type mutexGuard struct {
	pass *lintkit.Pass
	// guards maps the types.Var of each annotated field to its contract.
	guards map[types.Object]guardedField
}

func runMutexGuard(pass *lintkit.Pass) error {
	mg := &mutexGuard{pass: pass, guards: map[types.Object]guardedField{}}
	mg.collectGuards()
	if len(mg.guards) == 0 {
		return nil
	}
	for _, fd := range funcDecls(pass) {
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			continue
		}
		held := lockState{}
		if mu, ok := directiveArg(fd.Doc, "caller-holds"); ok {
			// The caller owns the discipline for the named mutex on the
			// receiver; seed the state as held for any base.
			held[wildcardBase+"."+mu] = 1
		}
		mg.walkStmts(fd.Body.List, held)
	}
	return nil
}

// collectGuards finds every //distlint:guarded-by annotation on a struct
// field and resolves the field's types.Var.
func (mg *mutexGuard) collectGuards() {
	for _, f := range mg.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := directiveArg(field.Doc, "guarded-by")
				if !ok {
					mu, ok = directiveArg(field.Comment, "guarded-by")
				}
				if !ok || mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := mg.pass.TypesInfo.Defs[name]; obj != nil {
						mg.guards[obj] = guardedField{fieldName: name.Name, mu: mu}
					}
				}
			}
			return true
		})
	}
}

// lockState maps "base.mu" keys to a held depth. wildcardBase marks locks
// seeded by caller-holds, which match any base expression.
type lockState map[string]int

const wildcardBase = "*"

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge keeps, for every key, the minimum depth across states — the
// conservative join after a branch.
func mergeStates(states []lockState) lockState {
	if len(states) == 0 {
		return lockState{}
	}
	out := states[0].clone()
	for k := range out {
		for _, s := range states[1:] {
			if s[k] < out[k] {
				out[k] = s[k]
			}
		}
	}
	return out
}

// held reports whether the mutex named mu on base is held.
func (s lockState) held(base, mu string) bool {
	return s[base+"."+mu] > 0 || s[wildcardBase+"."+mu] > 0
}

// walkStmts processes a statement list in order, returning the state after
// the list and whether it always terminates (return/panic/branch).
func (mg *mutexGuard) walkStmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = mg.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (mg *mutexGuard) walkStmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return mg.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return mg.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = mg.walkStmt(s.Init, st)
		}
		mg.scanExpr(s.Cond, st)
		thenSt, thenTerm := mg.walkStmts(s.Body.List, st.clone())
		var after []lockState
		if !thenTerm {
			after = append(after, thenSt)
		}
		if s.Else != nil {
			elseSt, elseTerm := mg.walkStmt(s.Else, st.clone())
			if !elseTerm {
				after = append(after, elseSt)
			}
		} else {
			after = append(after, st)
		}
		if len(after) == 0 {
			return st, true
		}
		return mergeStates(after), false
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = mg.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			mg.scanExpr(s.Cond, st)
		}
		bodySt, _ := mg.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			mg.walkStmt(s.Post, bodySt)
		}
		return mergeStates([]lockState{st, bodySt}), false
	case *ast.RangeStmt:
		mg.scanExpr(s.X, st)
		bodySt, _ := mg.walkStmts(s.Body.List, st.clone())
		return mergeStates([]lockState{st, bodySt}), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return mg.walkCases(s, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			mg.scanExpr(r, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function exit: no state
		// change. A deferred closure body runs against the current state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			mg.walkStmts(lit.Body.List, st.clone())
		} else {
			for _, a := range s.Call.Args {
				mg.scanExpr(a, st)
			}
		}
		return st, false
	case *ast.GoStmt:
		// A spawned goroutine holds nothing, whatever the spawner holds.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			mg.walkStmts(lit.Body.List, lockState{})
		}
		for _, a := range s.Call.Args {
			mg.scanExpr(a, st)
		}
		return st, false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isBuiltinCall(mg.pass, call, "panic") {
				mg.scanExpr(call, st)
				return st, true
			}
		}
		mg.scanStmtExprs(s, st)
		return st, false
	default:
		mg.scanStmtExprs(s, st)
		return st, false
	}
}

// walkCases handles switch/select: each clause runs against a copy of the
// incoming state; the join keeps the minimum.
func (mg *mutexGuard) walkCases(s ast.Stmt, st lockState) (lockState, bool) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = mg.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			mg.scanExpr(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = mg.walkStmt(s.Init, st)
		}
		mg.scanStmtExprs(s.Assign, st)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	states := []lockState{st}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				mg.scanExpr(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				mg.scanStmtExprs(c.Comm, st)
			}
			stmts = c.Body
		}
		caseSt, term := mg.walkStmts(stmts, st.clone())
		if !term {
			states = append(states, caseSt)
		}
	}
	return mergeStates(states), false
}

// scanStmtExprs applies scanExpr to a simple statement's expressions,
// updating lock state in place for lock/unlock calls.
func (mg *mutexGuard) scanStmtExprs(s ast.Stmt, st lockState) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined (not necessarily run) here: analyze its body
			// against the current state — inline callbacks run synchronously,
			// and the conservative join already discards what it can't know.
			mg.walkStmts(n.Body.List, st.clone())
			return false
		case *ast.CallExpr:
			if base, mu, op, ok := mg.lockOp(n); ok {
				key := base + "." + mu
				switch op {
				case "Lock", "RLock":
					st[key]++
				case "Unlock", "RUnlock":
					st[key]--
				}
				return false
			}
		case *ast.SelectorExpr:
			mg.checkAccess(n, st)
		}
		return true
	})
}

// scanExpr checks guarded accesses and lock ops inside one expression.
func (mg *mutexGuard) scanExpr(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	mg.scanStmtExprs(&ast.ExprStmt{X: e}, st)
}

// lockOp recognizes base.mu.Lock()/RLock()/Unlock()/RUnlock() calls where
// mu is the mutex named by any guard contract, returning the rendered base.
func (mg *mutexGuard) lockOp(call *ast.CallExpr) (base, mu, op string, ok bool) {
	sel, ok2 := call.Fun.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	muSel, ok2 := sel.X.(*ast.SelectorExpr)
	if !ok2 {
		// A bare mutex (local or package-level): base is the empty string.
		if id, ok3 := sel.X.(*ast.Ident); ok3 {
			return "", id.Name, op, true
		}
		return "", "", "", false
	}
	return types.ExprString(muSel.X), muSel.Sel.Name, op, true
}

// checkAccess reports a guarded field access without its mutex held.
func (mg *mutexGuard) checkAccess(sel *ast.SelectorExpr, st lockState) {
	selection, ok := mg.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	g, ok := mg.guards[declared(selection.Obj())]
	if !ok {
		return
	}
	base := types.ExprString(sel.X)
	if st.held(base, g.mu) {
		return
	}
	mg.pass.Reportf(sel.Sel.Pos(), "field %s is guarded by %s.%s but accessed without it held",
		g.fieldName, baseOrReceiver(base), g.mu)
}

// baseOrReceiver renders the base for the diagnostic message.
func baseOrReceiver(base string) string {
	if base == "" {
		return "its"
	}
	return base
}
