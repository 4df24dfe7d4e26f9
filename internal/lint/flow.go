package lint

// This file is the suite's intra-procedural control-flow/dataflow layer:
// a per-function statement-graph walker that threads a set of reaching
// "facts" (named dataflow properties, e.g. "mutex s.mu is held") forward
// through a function body in execution order, joining facts at branch
// merges. It is deliberately small — no basic blocks, no SSA, no
// x/tools — because its one client, the summaries' lock walk
// (summary.go), only needs may-analysis over Go's structured statements:
//
//   - Branches (if/switch/select) analyze each arm from a clone of the
//     incoming facts and union the arms that can fall through. Union is
//     the may-join: a fact reaches the merge point if it reaches it on
//     ANY incoming path, which is the conservative direction for
//     "is a lock possibly held here?".
//   - Arms that cannot fall through (return, break, continue, goto,
//     panic, os.Exit, log.Fatal*) contribute nothing to the join, which
//     is what makes the classic `if err { mu.Unlock(); return }` early
//     exit precise: the fall-through path still holds the lock.
//   - Loop bodies are walked twice — once with the entry facts, once
//     with entry ∪ first-pass exit — a two-iteration approximation of
//     the dataflow fixpoint that is exact for the small fact sets these
//     analyzers track. Visitors therefore see a statement more than once
//     and must deduplicate reports by position.
//   - Function literals are NOT descended into: a FuncLit runs on its
//     own call (or goroutine) with its own fact state, so the lock walk
//     walks each literal body as a separate function.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// factSet is the reaching-fact state threaded through a flow walk: the
// set of facts that may hold at a program point, each keyed by a
// visitor-chosen name and carrying the position that established it.
type factSet map[string]token.Pos

func (f factSet) clone() factSet {
	g := make(factSet, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

// union folds g into f, keeping f's position for facts both sets hold.
func (f factSet) union(g factSet) {
	for k, v := range g {
		if _, ok := f[k]; !ok {
			f[k] = v
		}
	}
}

// A flowVisitor observes every statement of a walked function body with
// the facts that reach it, in execution order. transfer both inspects
// the statement (reporting findings) and applies the statement's effects
// by mutating facts in place. For compound statements (if/for/switch/
// select/range) transfer runs BEFORE the walker descends into the arms,
// and should only examine the statement's header expressions — the
// walker delivers the nested statements itself.
type flowVisitor interface {
	transfer(s ast.Stmt, facts factSet)
}

// walkFlow drives a forward walk of one function body's statement graph,
// starting from an empty fact set.
func walkFlow(body *ast.BlockStmt, v flowVisitor) {
	if body == nil {
		return
	}
	walkStmts(body.List, make(factSet), v)
}

// walkStmts walks a statement list, returning the facts that fall
// through its end and whether the end is reachable at all.
func walkStmts(list []ast.Stmt, f factSet, v flowVisitor) (factSet, bool) {
	for _, s := range list {
		var reach bool
		f, reach = walkStmt(s, f, v)
		if !reach {
			return f, false
		}
	}
	return f, true
}

func walkStmt(s ast.Stmt, f factSet, v flowVisitor) (factSet, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return walkStmts(s.List, f, v)

	case *ast.LabeledStmt:
		return walkStmt(s.Stmt, f, v)

	case *ast.IfStmt:
		if s.Init != nil {
			f, _ = walkStmt(s.Init, f, v)
		}
		v.transfer(s, f) // condition evaluation (may contain receives)
		thenF, thenReach := walkStmts(s.Body.List, f.clone(), v)
		if s.Else == nil {
			// Paths: skip (f) and then-branch fall-through.
			if thenReach {
				f.union(thenF)
			}
			return f, true
		}
		elseF, elseReach := walkStmt(s.Else, f.clone(), v)
		switch {
		case thenReach && elseReach:
			thenF.union(elseF)
			return thenF, true
		case thenReach:
			return thenF, true
		case elseReach:
			return elseF, true
		default:
			return f, false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			f, _ = walkStmt(s.Init, f, v)
		}
		v.transfer(s, f)
		iterate := func(in factSet) factSet {
			out, reach := walkStmts(s.Body.List, in, v)
			if reach && s.Post != nil {
				out, _ = walkStmt(s.Post, out, v)
			}
			return out
		}
		first := iterate(f.clone())
		second := f.clone()
		second.union(first)
		f.union(iterate(second))
		return f, true // zero iterations (or break) falls through

	case *ast.RangeStmt:
		v.transfer(s, f)
		first, _ := walkStmts(s.Body.List, f.clone(), v)
		second := f.clone()
		second.union(first)
		again, _ := walkStmts(s.Body.List, second, v)
		f.union(again)
		return f, true

	case *ast.SwitchStmt:
		if s.Init != nil {
			f, _ = walkStmt(s.Init, f, v)
		}
		v.transfer(s, f)
		return walkClauses(s.Body, f, v, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f, _ = walkStmt(s.Init, f, v)
		}
		v.transfer(s, f)
		return walkClauses(s.Body, f, v, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		v.transfer(s, f) // the select itself may block (lockheld's business)
		// A select always commits to exactly one case, so the join is
		// over the clause exits only (no skip path).
		return walkClauses(s.Body, f, v, true)

	case *ast.ReturnStmt:
		v.transfer(s, f)
		return f, false

	case *ast.BranchStmt:
		// break/continue/goto end this path; their facts rejoin outside a
		// construct the walker does not model edge-precisely. Dropping
		// them can only lose facts (false negatives), never invent them.
		v.transfer(s, f)
		return f, false

	case *ast.ExprStmt:
		v.transfer(s, f)
		if isTerminalCall(s.X) {
			return f, false
		}
		return f, true

	default:
		// Assign, DeclStmt, IncDec, Send, Go, Defer, Empty: straight-line.
		v.transfer(s, f)
		return f, true
	}
}

// walkClauses walks the case/comm clauses of a switch or select body.
// exhaustive marks constructs where one arm always runs (a default
// clause exists, or the construct is a select); otherwise the incoming
// facts themselves fall through as the no-arm-taken path.
func walkClauses(body *ast.BlockStmt, f factSet, v flowVisitor, exhaustive bool) (factSet, bool) {
	var out factSet
	reach := false
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		default:
			continue
		}
		exit, ok := walkStmts(list, f.clone(), v)
		if !ok {
			continue
		}
		if out == nil {
			out = exit
		} else {
			out.union(exit)
		}
		reach = true
	}
	if !exhaustive || len(body.List) == 0 {
		if out == nil {
			return f, true
		}
		out.union(f)
		return out, true
	}
	if !reach {
		return f, false
	}
	return out, true
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				return true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				return true
			}
		}
	}
	return false
}

// isTerminalCall matches expression statements that never return:
// panic(...), os.Exit(...), log.Fatal/Fatalf/Fatalln(...).
func isTerminalCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		if pkg.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
		if pkg.Name == "log" && isLogFatalName(fun.Sel.Name) {
			return true
		}
	}
	return false
}

func isLogFatalName(name string) bool {
	return name == "Fatal" || name == "Fatalf" || name == "Fatalln"
}

// headerExprs returns the expressions a statement evaluates itself —
// before any nested statement runs — so visitors can scan compound
// statement headers (an if condition, a range operand) without touching
// the arms the walker will deliver separately.
func headerExprs(s ast.Stmt) []ast.Expr {
	switch s := s.(type) {
	case *ast.IfStmt:
		return []ast.Expr{s.Cond}
	case *ast.ForStmt:
		if s.Cond != nil {
			return []ast.Expr{s.Cond}
		}
		return nil
	case *ast.RangeStmt:
		return []ast.Expr{s.X}
	case *ast.SwitchStmt:
		if s.Tag != nil {
			return []ast.Expr{s.Tag}
		}
		return nil
	case *ast.ExprStmt:
		return []ast.Expr{s.X}
	case *ast.SendStmt:
		return []ast.Expr{s.Chan, s.Value}
	case *ast.AssignStmt:
		return s.Rhs
	case *ast.ReturnStmt:
		return s.Results
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	case *ast.DeclStmt:
		var out []ast.Expr
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
		}
		return out
	}
	return nil
}

// exprText renders an expression the way it appears in source, for
// diagnostics and for keying facts by lvalue ("pg.mu", "s.peers[id]").
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}

// inspectShallow applies fn to every node of the given expressions
// without descending into function literals (their bodies execute as
// separate functions and get their own flow walk).
func inspectShallow(exprs []ast.Expr, fn func(ast.Node) bool) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			return fn(n)
		})
	}
}
