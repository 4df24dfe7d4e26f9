package lint

// This file is the interprocedural half of the suite's analysis
// infrastructure (DESIGN.md §15): a package-level call graph over the
// already-type-checked ASTs of every package in one lint invocation.
// The syntactic analyzers (ctxcheck, unitcheck, …) stop at function
// boundaries; the graph built here, plus the bottom-up per-function
// summaries in summary.go, lets puritycert, lockorder, ctxprop and
// hotalloc reason about what a call REACHES, not just what a body
// contains.
//
// Resolution policy, in decreasing order of precision:
//
//   - package-level functions and concrete methods resolve to their
//     *types.Func and, when the defining package is part of the same
//     lint invocation, to a graph node with a body;
//   - calls into packages outside the invocation (the standard library,
//     whose bodies the loader deliberately skips) resolve to the callee
//     object only and are classified by the curated effect/blocking
//     tables in summary.go;
//   - calls through function values, fields, parameters, method values
//     and interface methods do NOT resolve — the caller's summary is
//     marked Dynamic and the analyzers built on top document how they
//     treat that hole (see DESIGN.md §15).
//
// Function literals are attributed to their enclosing declared function:
// a literal's effects, lock acquisitions and allocation sites belong to
// whoever defined it (conservative for certification — the literal may
// only run later, or never), while its *blocking* behaviour does not
// propagate (a `go func(){ <-ch }()` parks a goroutine, not the caller).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Program is the whole-invocation view: every analyzed package, a node
// per declared function with a body, and (after summarize) a Summary per
// node. Build one per lint run and share it across analyzers — the graph
// walk is paid once, not once per analyzer.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	funcs map[*types.Func]*fnode
	// order holds the nodes in deterministic (file, position) order so
	// every walk over "all functions" is stable run to run.
	order []*fnode

	lockGraph *lockGraph        // built lazily by lockorder, cached here
	hotReach  map[*fnode]string // built lazily by hotalloc, cached here
}

// fnode is one declared function or method with a body.
type fnode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	// calls are the statically resolved call sites, in source order,
	// function-literal bodies included (attributed to this node).
	calls []callSite
	// dynamicPos is the first call site the graph could not resolve
	// (function value, interface method, …), or NoPos.
	dynamicPos token.Pos
	// sum is filled by summarize (summary.go).
	sum *Summary
}

// callSite is one resolved call expression inside a node.
type callSite struct {
	pos    token.Pos
	callee *types.Func // resolved callee (may be external to the Program)
	target *fnode      // non-nil when the callee has a body in the Program
	// noBlock marks calls whose blocking does not stall this function:
	// the call is a `go` statement's call, or sits inside a function
	// literal (which runs on its own activation).
	noBlock bool
}

// BuildProgram constructs the call graph over pkgs and computes the
// bottom-up function summaries. The packages must share one FileSet
// (LoadPackages and LoadFixture guarantee this).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{funcs: make(map[*types.Func]*fnode)}
	if len(pkgs) == 0 {
		return prog
	}
	prog.Fset = pkgs[0].Fset
	prog.Pkgs = pkgs

	// Pass 1: one node per FuncDecl with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			if isTestFile(pkg.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &fnode{fn: obj, decl: fd, pkg: pkg}
				prog.funcs[obj] = n
				prog.order = append(prog.order, n)
			}
		}
	}
	sort.Slice(prog.order, func(i, j int) bool {
		return prog.order[i].decl.Pos() < prog.order[j].decl.Pos()
	})

	// Pass 2: resolve call sites (needs every node to exist first).
	for _, n := range prog.order {
		collectCalls(prog, n)
	}

	summarize(prog)
	return prog
}

// collectCalls walks n's body recording resolved call sites in source
// order. Function literal bodies are included (attributed to n) with
// noBlock set; calls launched by `go` statements are likewise noBlock.
func collectCalls(prog *Program, n *fnode) {
	var scan func(node ast.Node, noBlock bool)
	scan = func(node ast.Node, noBlock bool) {
		ast.Inspect(node, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncLit:
				scan(nd.Body, true)
				return false
			case *ast.GoStmt:
				// The spawned call itself cannot block the caller; its
				// arguments are evaluated synchronously and are scanned
				// with the surrounding noBlock mode.
				if fn := resolveCallee(n.pkg.TypesInfo, nd.Call); fn != nil {
					n.calls = append(n.calls, callSite{
						pos: nd.Call.Pos(), callee: fn, target: prog.funcs[fn], noBlock: true,
					})
				} else if !isBuiltinOrConversion(n.pkg.TypesInfo, nd.Call) {
					n.markDynamic(nd.Call.Pos())
				}
				for _, arg := range nd.Call.Args {
					scan(arg, noBlock)
				}
				return false
			case *ast.CallExpr:
				if fn := resolveCallee(n.pkg.TypesInfo, nd); fn != nil {
					n.calls = append(n.calls, callSite{
						pos: nd.Pos(), callee: fn, target: prog.funcs[fn], noBlock: noBlock,
					})
				} else if !isBuiltinOrConversion(n.pkg.TypesInfo, nd) {
					n.markDynamic(nd.Pos())
				}
				return true
			}
			return true
		})
	}
	scan(n.decl.Body, false)
}

// dynamicSites records, pre-summary, where a node performs calls the
// graph cannot resolve. Stored on the node so summarize can fold it into
// the Summary with a witness position.
func (n *fnode) markDynamic(pos token.Pos) {
	if n.dynamicPos == token.NoPos {
		n.dynamicPos = pos
	}
}

// resolveCallee resolves a call expression to the *types.Func it
// statically invokes, or nil when the callee is dynamic (function
// values, method values, interface methods, fields, builtins,
// conversions).
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Method call or qualified pkg.Func call.
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			// An interface method has no body anywhere; the concrete
			// receiver is unknown statically, so the call is dynamic.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return fn
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isBuiltinOrConversion reports whether the call is a builtin
// (append, make, len, …) or a type conversion — call shapes that are
// not "dynamic callees" even though they resolve to no *types.Func.
func isBuiltinOrConversion(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName:
			return true
		}
		if _, isType := info.Types[fun]; isType && info.Types[fun].IsType() {
			return true
		}
	default:
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
	}
	return false
}

// sccs partitions the Program's nodes into strongly connected
// components, emitted callees-first (Tarjan's order), so summarize can
// run bottom-up and only iterate to fixpoint inside a cycle.
func (p *Program) sccs() [][]*fnode {
	index := make(map[*fnode]int, len(p.order))
	low := make(map[*fnode]int, len(p.order))
	onStack := make(map[*fnode]bool, len(p.order))
	var stack []*fnode
	var out [][]*fnode
	next := 0

	var strongconnect func(v *fnode)
	strongconnect = func(v *fnode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, cs := range v.calls {
			w := cs.target
			if w == nil {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*fnode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range p.order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return out
}

// funcDisplayName renders a function for diagnostics: "dp.OptimizeCtx",
// "(*cloud.Server).handleOptimize".
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = lastSegment(fn.Pkg().Path())
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		name := types.TypeString(rt, func(p *types.Package) string { return lastSegment(p.Path()) })
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		return "(" + ptr + pkg + "." + name + ")." + fn.Name()
	}
	if pkg == "" {
		return fn.Name()
	}
	return pkg + "." + fn.Name()
}
