package lint

// Bottom-up per-function summaries over the call graph (callgraph.go),
// computed SCC by SCC in callees-first order with a fixpoint iteration
// inside cycles. This file is the suite's one fact model: it is the only
// code that turns a node of a function body into a fact, and the
// analyzers built on it (detcheck, lockheld, hotalloc, puritycert,
// lockorder, ctxprop) only report over what it recorded. Each summary
// records four families of facts, every one carrying a witness chain
// (the call path to the root cause) so a transitive finding can be
// explained end-to-end:
//
//   - effects: nondeterministic inputs the function may observe — wall
//     clock reads, global math/rand draws, order-dependent folds and
//     serializations inside map ranges, package-level variable mutation;
//   - lock sets: which lock classes the function may acquire, and the
//     lock→lock acquisition-order edges it establishes (lock B taken
//     while A is held), tracked flow-sensitively with the walker in
//     flow.go so early-exit unlocks stay precise — the same walk records
//     every blocking operation reached while a lock may be held;
//   - blocking: whether the function may park — channel operations,
//     selects without a default, time.Sleep, HTTP round trips — plus the
//     ctxprop-specific refinement "blocks with no context.Context
//     parameter anywhere on the path" (unguarded blocking);
//   - allocation: whether the function may allocate on the hot path —
//     make/new/append, slice, map and pointer composite literals, and
//     fmt calls (interface boxing).
//
// Besides the first witness of each fact, the summary keeps every DIRECT
// site of it in the function's own body, so the per-site reporters
// (detcheck, hotalloc) need no walk of their own.
//
// The contract with consumers (DESIGN.md §15): facts are MAY facts and
// monotone — a call site unions the callee's summary into the caller —
// so fixpoints converge; dynamic calls (function values, interface
// methods) contribute no facts but set Dynamic, and each analyzer
// documents how it treats that hole. Unknown external callees are
// assumed pure, non-blocking and allocation-free: the standard library
// is loaded API-only, and the classifiers below cover the calls that
// matter — the documented soundness boundary.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"evvo/internal/stable"
)

// Fact kinds. The first numEffects are the nondeterministic effects
// puritycert certifies against, in severity/report order.
const (
	effTime       = iota // wall-clock read (time.Now/Since/Until)
	effRand              // global math/rand stream
	effMapOrder          // order-dependent fold or serialization inside a map range
	effGlobal            // package-level variable mutation
	factBlocking         // may park (sync waits included)
	factUnguarded        // may park with no context in scope (ctxprop)
	factAlloc            // may allocate
	numFacts

	numEffects = factBlocking
)

var effectNames = [numEffects]string{"wall-clock", "global-rand", "map-order", "global-write"}

// A witness pins one fact to the place that established it: a source
// position inside the summarized function, a description of the root
// cause, and — when the fact arrived through a call — the callee whose
// summary supplied it. Chains are reconstructed by following via links
// through the callee summaries.
type witness struct {
	pos  token.Pos
	what string
	via  *types.Func // nil when the fact is established directly
}

// heldBlock is one blocking operation reached while locks may be held.
type heldBlock struct {
	pos   token.Pos
	what  string
	locks []string // source text of each may-held lock ("g.mu"), sorted
}

// A Summary is the interprocedural fact set of one declared function.
type Summary struct {
	// facts holds the first witness of each fact kind, direct or
	// arrived through a call. factBlocking includes sync.WaitGroup/Cond
	// waits; factUnguarded is the ctxprop refinement — the function may
	// park on a channel/select/sleep/HTTP op and has NO context.Context
	// parameter, or calls such a function, so the deadline cannot reach
	// the block. Functions WITH a ctx parameter never record it: the
	// drop (if any) is reported inside them, where the ctx went missing.
	facts [numFacts]*witness
	// sites lists every direct occurrence of each fact kind in the
	// function's own body, function literals included, in source order.
	// Blocking sites are those that stall this function (not literals or
	// go statements); factUnguarded has no direct sites of its own.
	sites [numFacts][]witness
	// held lists the blocking operations the lock walk reached while a
	// lock may be held, function literals walked on their own.
	held []heldBlock

	// acquires: lock classes the function may take at some point during
	// a call (transitively), each with the witness that first saw it.
	acquires map[string]*witness
	// lockEdges: acquisition-order edges "B taken while A held", keyed
	// A\x00B, with the position that established the edge.
	lockEdges map[string]*witness

	hasCtx    bool // signature carries context.Context or *http.Request
	dynamic   bool // has call sites the graph could not resolve
	certified bool // carries //lint:certify pure
	hot       bool // carries //lint:hot
}

// summarize computes every node's Summary, bottom-up over the SCC DAG.
// Direct facts are scanned once per node up front (they cannot change);
// the fixpoint only re-merges callees and re-runs the lock walk.
func summarize(prog *Program) {
	for _, n := range prog.order {
		n.sum = newSummary(n)
		scanDirect(n, n.sum)
	}
	for _, scc := range prog.sccs() {
		// Deterministic member order inside the component.
		sort.Slice(scc, func(i, j int) bool { return scc[i].decl.Pos() < scc[j].decl.Pos() })
		for {
			changed := false
			for _, n := range scc {
				if computeSummary(prog, n) {
					changed = true
				}
			}
			if !changed || len(scc) == 1 {
				break
			}
		}
	}
}

func newSummary(n *fnode) *Summary {
	s := &Summary{
		acquires:  make(map[string]*witness),
		lockEdges: make(map[string]*witness),
		hasCtx:    signatureCarriesCtx(n.fn),
		certified: declHasPragma(n.decl, "//lint:certify pure"),
		hot:       declHasPragma(n.decl, "//lint:hot"),
	}
	if n.dynamicPos != token.NoPos {
		s.dynamic = true
	}
	return s
}

// computeSummary (re)derives n's transitive facts from the CURRENT
// summaries of its callees, reporting whether anything new appeared —
// the fixpoint test inside an SCC. Facts only ever turn on, so the
// iteration terminates.
func computeSummary(prog *Program, n *fnode) bool {
	s := n.sum
	before := s.factKey()

	for _, cs := range n.calls {
		if cs.target != nil {
			mergeCallee(s, cs, cs.target.sum)
			if cs.target.sum.dynamic {
				s.dynamic = true
			}
		}
	}

	lockWalk(prog, n)

	return s.factKey() != before
}

// factKey folds the boolean shape of the summary into a comparable
// string for fixpoint detection (witness positions excluded — they may
// legitimately move between iterations without new facts appearing).
func (s *Summary) factKey() string {
	var b strings.Builder
	for i := range s.facts {
		if s.facts[i] != nil {
			b.WriteByte(byte('0' + i))
		}
	}
	if s.dynamic {
		b.WriteByte('D')
	}
	keys := make([]string, 0, len(s.acquires)+len(s.lockEdges))
	for k := range s.acquires {
		keys = append(keys, "a"+k)
	}
	for k := range s.lockEdges {
		keys = append(keys, "e"+k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(';')
	}
	return b.String()
}

// scanDirect records every fact n's own body establishes without calls:
// blocking operations, allocation sites, clock and rand reads, map-order
// folds and global writes. Function literals are included for effects/
// allocations (they belong to whoever wrote them) but not for blocking.
func scanDirect(n *fnode, s *Summary) {
	info := n.pkg.TypesInfo
	var scan func(node ast.Node, noBlock bool)
	scan = func(node ast.Node, noBlock bool) {
		ast.Inspect(node, func(nd ast.Node) bool {
			if what, join, ok := blockingOp(info, nd); ok && !noBlock {
				s.addSite(factBlocking, nd.Pos(), what)
				// WaitGroup/Cond waits count as blocking (lockheld's
				// concern) but NOT as unguarded blocking: a join on
				// workers that carry the ctx themselves is the blessed
				// fan-out shape (par.ForEach), and flagging it would
				// punish exactly the cancellable DP workers. A select is HOW a
				// ctx-aware function blocks correctly (ctx.Done is one of
				// the arms), so it only counts as unguarded when no ctx is
				// in scope — exactly the hasCtx test applied by set.
				if !join {
					s.set(factUnguarded, nd.Pos(), what, nil)
				}
			}
			switch nd := nd.(type) {
			case *ast.FuncLit:
				scan(nd.Body, true)
				return false
			case *ast.GoStmt:
				// Effects and allocations of the spawned call and its
				// arguments still happen synchronously; blocking does not.
				scan(nd.Call, true)
				return false
			case *ast.SelectStmt:
				// The comm operations are PART of the select — a receive
				// under a default-carrying select never parks — so only
				// the clause bodies are scanned, not the comm headers.
				for _, c := range nd.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, st := range cc.Body {
							scan(st, noBlock)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				if isMapExpr(info, nd.X) {
					for _, h := range mapRangeHazards(info, nd) {
						s.addSite(effMapOrder, h.pos, h.what)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range nd.Lhs {
					if pos, name, ok := writesPackageLevel(info, lhs); ok {
						s.addSite(effGlobal, pos, "writes package-level var "+name)
					}
				}
			case *ast.IncDecStmt:
				if pos, name, ok := writesPackageLevel(info, nd.X); ok {
					s.addSite(effGlobal, pos, "writes package-level var "+name)
				}
			case *ast.CompositeLit:
				if w, ok := allocatingLiteral(info, nd); ok {
					s.addSite(factAlloc, nd.Pos(), w)
				}
			case *ast.CallExpr:
				if kind, what, ok := callFact(info, nd); ok {
					s.addSite(kind, nd.Pos(), what)
				}
			}
			return true
		})
	}
	scan(n.decl.Body, false)
}

// callFact classifies one call site for the direct, non-blocking fact it
// establishes: builtin allocators, clock reads, global rand draws and fmt
// boxing. In-Program callees are merged separately (mergeCallee).
func callFact(info *types.Info, call *ast.CallExpr) (kind int, what string, ok bool) {
	if id, isID := unparen(call.Fun).(*ast.Ident); isID {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "append":
				return factAlloc, "append growth", true
			case "make", "new":
				return factAlloc, b.Name(), true
			}
		}
		return 0, "", false
	}
	pkgPath, funcName, isPkgFn := pkgFuncOf(info, call)
	switch {
	case !isPkgFn:
	case pkgPath == "time" && (funcName == "Now" || funcName == "Since" || funcName == "Until"):
		return effTime, "time." + funcName + "()", true
	case pkgPath == "math/rand" && globalRandFns[funcName]:
		return effRand, "rand." + funcName, true
	case pkgPath == "fmt":
		return factAlloc, "fmt." + funcName + " (interface boxing)", true
	}
	return 0, "", false
}

// globalRandFns are math/rand package-level functions that draw from the
// shared global source.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
}

// blockingOp classifies one node as an operation that may park the
// goroutine running it, naming it for witnesses and diagnostics: channel
// sends and receives, range over a channel, selects without a default,
// time.Sleep, HTTP round trips (net/http helpers and http.Client
// methods) and sync waits. join marks the sync waits (WaitGroup/Cond).
func blockingOp(info *types.Info, nd ast.Node) (what string, join, ok bool) {
	switch nd := nd.(type) {
	case *ast.SendStmt:
		return "channel send", false, true
	case *ast.UnaryExpr:
		if nd.Op == token.ARROW {
			return "channel receive", false, true
		}
	case *ast.SelectStmt:
		if !hasDefaultClause(nd.Body) {
			return "select without default", false, true
		}
	case *ast.RangeStmt:
		if t := info.Types[nd.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "range over channel", false, true
			}
		}
	case *ast.CallExpr:
		if pkgPath, funcName, isPkgFn := pkgFuncOf(info, nd); isPkgFn {
			switch {
			case pkgPath == "time" && funcName == "Sleep":
				return "time.Sleep", false, true
			case pkgPath == "net/http" && blockingHTTPFns[funcName]:
				return "http." + funcName, false, true
			}
			return "", false, false
		}
		sel, isSel := unparen(nd.Fun).(*ast.SelectorExpr)
		if !isSel {
			return "", false, false
		}
		recv := receiverType(info, sel)
		switch name := sel.Sel.Name; {
		case (name == "Do" || blockingHTTPFns[name]) && recv != nil && types.TypeString(recv, nil) == "net/http.Client":
			return "http.Client." + name, false, true
		case name == "Wait" && isSyncWaitType(recv):
			return "sync " + exprText(sel.X) + ".Wait", true, true
		}
	}
	return "", false, false
}

// mergeCallee unions a resolved in-Program callee's summary into the
// caller at one call site.
func mergeCallee(s *Summary, cs callSite, callee *Summary) {
	for kind, w := range callee.facts {
		// Blocking under a go statement or in a literal parks another
		// goroutine. The unguarded refinement also stops at ctx
		// boundaries: a callee WITH a ctx parameter owns its own blocking
		// discipline (and any drop inside it is reported there by ctxprop).
		skip := (kind == factBlocking || kind == factUnguarded) && cs.noBlock ||
			kind == factUnguarded && callee.hasCtx
		if w != nil && !skip {
			s.set(kind, cs.pos, w.what, cs.callee)
		}
	}
	for class, w := range callee.acquires {
		if s.acquires[class] == nil {
			s.acquires[class] = &witness{pos: cs.pos, what: w.what, via: cs.callee}
		}
	}
	// lockEdges deliberately do NOT propagate: an order edge is a global
	// fact already, owned by the function whose body (or call-with-held-
	// lock) established it — lockorder assembles the whole-program graph
	// from every function's own edges, and keeping them local gives each
	// edge exactly one owning package to report (and waive) in.
}

// set records the first witness of a fact kind. A ctx parameter in scope
// keeps factUnguarded off: drops are ctxprop's per-call-site business.
func (s *Summary) set(kind int, pos token.Pos, what string, via *types.Func) {
	if kind == factUnguarded && s.hasCtx {
		return
	}
	if s.facts[kind] == nil {
		s.facts[kind] = &witness{pos: pos, what: what, via: via}
	}
}

// addSite records one direct occurrence of a fact kind.
func (s *Summary) addSite(kind int, pos token.Pos, what string) {
	s.sites[kind] = append(s.sites[kind], witness{pos: pos, what: what})
	s.set(kind, pos, what, nil)
}

// lockWalk runs the flow walker over n's body tracking may-held lock
// classes, recording acquisitions, order edges and the blocking
// operations reached with a lock held into the summary. Callee
// acquisitions (from the current summaries) establish edges too: holding
// A while calling a function that takes B is an A→B edge even though no
// Lock() appears here. The walk reruns on every fixpoint iteration, so
// held blocks are rebuilt from scratch each time.
func lockWalk(prog *Program, n *fnode) {
	n.sum.held = nil
	v := &lockOrderVisitor{prog: prog, n: n, s: n.sum, lockText: map[token.Pos]string{}, seen: map[token.Pos]bool{}}
	walkFlow(n.decl.Body, v)
	// Function literals hold no caller locks at entry (they run on their
	// own activation), but their own acquisitions, edges and held blocks
	// belong to this declaration. Descend fully so nested literals get
	// their own walk too (re-walking an outer literal's straight-line
	// statements is idempotent: fact insertion and witness recording are
	// set-like).
	ast.Inspect(n.decl.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok {
			walkFlow(lit.Body, v)
		}
		return true
	})
}

// lockOrderVisitor is the flowVisitor computing lock classes, order
// edges and held blocks. Facts are keyed by lock class (lockClassOf);
// lockText maps each acquiring call's position to the lock's source
// text, so held blocks can name the lock as written ("g.mu"). seen
// deduplicates held blocks: loop bodies are walked twice.
type lockOrderVisitor struct {
	prog     *Program
	n        *fnode
	s        *Summary
	lockText map[token.Pos]string
	seen     map[token.Pos]bool
}

func (v *lockOrderVisitor) transfer(stmt ast.Stmt, facts factSet) {
	switch stmt.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		// defer unlocks run at exit (lock stays held — facts untouched,
		// later blocking calls still count); go bodies run elsewhere and
		// are walked separately.
		return
	}
	v.blockHeld(stmt, facts)
	inspectShallow(headerExprs(stmt), func(nd ast.Node) bool {
		v.blockHeld(nd, facts)
		if call, ok := nd.(*ast.CallExpr); ok {
			v.transferCall(call, facts)
		}
		return true
	})
}

// blockHeld records nd as a held block when it may park while any lock
// may be held.
func (v *lockOrderVisitor) blockHeld(nd ast.Node, held factSet) {
	if len(held) == 0 {
		return
	}
	what, _, ok := blockingOp(v.n.pkg.TypesInfo, nd)
	if !ok || v.seen[nd.Pos()] {
		return
	}
	v.seen[nd.Pos()] = true
	locks := make([]string, 0, len(held))
	for _, pos := range held {
		locks = append(locks, v.lockText[pos])
	}
	sort.Strings(locks)
	v.s.held = append(v.s.held, heldBlock{pos: nd.Pos(), what: what, locks: locks})
}

func (v *lockOrderVisitor) transferCall(call *ast.CallExpr, facts factSet) {
	info := v.n.pkg.TypesInfo
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv := receiverType(info, sel)
		if isMutexType(recv) {
			class, ok := lockClassOf(info, sel.X)
			if !ok {
				return
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				v.lockText[call.Pos()] = exprText(sel.X)
				v.acquire(class, call.Pos(), facts, nil)
			case "Unlock", "RUnlock":
				delete(facts, class)
			}
			return
		}
	}
	// A call to a summarized function that itself acquires locks
	// establishes order edges from everything held here.
	callee := resolveCallee(info, call)
	if callee == nil {
		return
	}
	target := v.prog.funcs[callee]
	if target == nil || target.sum == nil {
		return
	}
	for _, class := range stable.SortedKeys(target.sum.acquires) {
		v.acquireTransitive(class, call.Pos(), facts, callee)
	}
}

// acquire records taking `class` with `held` currently held: the class
// joins the summary's acquire set and every held→class pair becomes an
// order edge. The class then becomes held.
func (v *lockOrderVisitor) acquire(class string, pos token.Pos, held factSet, via *types.Func) {
	if v.s.acquires[class] == nil {
		v.s.acquires[class] = &witness{pos: pos, what: class, via: via}
	}
	v.addEdges(class, pos, held, via)
	if _, ok := held[class]; !ok {
		held[class] = pos
	}
}

// acquireTransitive records a callee's acquisition: edges are formed
// from the caller's held set, but the class does NOT become held here —
// a summarized callee is assumed to release what it takes (unbalanced
// lock helpers lose follow-on edges; a conservative miss, never a false
// edge).
func (v *lockOrderVisitor) acquireTransitive(class string, pos token.Pos, held factSet, via *types.Func) {
	if v.s.acquires[class] == nil {
		v.s.acquires[class] = &witness{pos: pos, what: class, via: via}
	}
	v.addEdges(class, pos, held, via)
}

func (v *lockOrderVisitor) addEdges(class string, pos token.Pos, held factSet, via *types.Func) {
	for heldClass := range held {
		if heldClass == class {
			continue // re-entry is lockheld/runtime territory, not an order edge
		}
		key := heldClass + "\x00" + class
		if v.s.lockEdges[key] == nil {
			v.s.lockEdges[key] = &witness{pos: pos, what: heldClass + " -> " + class, via: via}
		}
	}
}

// lockClassOf canonicalizes a lock expression to a stable class name:
// field locks key by their defining struct ("cloud.Server.mu" — one
// class per field, all instances collapsed, the standard lock-class
// abstraction), package-level locks by package path and name, local
// locks by declaration position.
func lockClassOf(info *types.Info, expr ast.Expr) (string, bool) {
	expr = unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		if obj == nil {
			return "", false
		}
		// Field selection: qualify by the receiver's named type.
		t := info.Types[e.X].Type
		if t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return types.TypeString(named, shortPkgQualifier) + "." + e.Sel.Name, true
			}
		}
		if obj.Pkg() != nil {
			return lastSegment(obj.Pkg().Path()) + "." + e.Sel.Name, true
		}
		return e.Sel.Name, true
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lastSegment(obj.Pkg().Path()) + "." + obj.Name(), true
		}
		// Local lock: class per declaration site.
		return "local." + obj.Name(), true
	}
	return "", false
}

func shortPkgQualifier(p *types.Package) string { return lastSegment(p.Path()) }

// receiverType returns the (pointer-stripped) type of a selector's
// receiver expression, or nil.
func receiverType(info *types.Info, sel *ast.SelectorExpr) types.Type {
	t := info.Types[sel.X].Type
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isMutexType matches sync.Mutex, sync.RWMutex and the sync.Locker
// interface (pointer receivers already stripped by the caller).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.TypeString(t, nil) {
	case "sync.Mutex", "sync.RWMutex", "sync.Locker":
		return true
	}
	return false
}

// isSyncWaitType matches sync.WaitGroup and sync.Cond receivers.
func isSyncWaitType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.TypeString(t, nil) {
	case "sync.WaitGroup", "sync.Cond":
		return true
	}
	return false
}

// signatureCarriesCtx reports whether the function can thread a request
// context: an explicit context.Context parameter, an *http.Request
// (whose Context() is the request's), or a receive-only done channel
// (`<-chan struct{}` — the shape of ctx.Done(), the idiomatic
// cancellation conduit for leaf helpers like cloud.sleepCtx).
func signatureCarriesCtx(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		switch types.TypeString(t, nil) {
		case "context.Context", "*net/http.Request", "<-chan struct{}":
			return true
		}
	}
	return false
}

// declHasPragma reports whether the declaration's doc comment contains a
// line starting with the given pragma.
func declHasPragma(decl *ast.FuncDecl, pragma string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, pragma) {
			return true
		}
	}
	return false
}

// blockingHTTPFns are net/http package-level helpers that perform a full
// round trip.
var blockingHTTPFns = map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true}

// allocatingLiteral classifies composite literals that always heap
// allocate: slice and map literals. Struct and array VALUE literals
// stay silent (they live on the stack unless escape analysis says
// otherwise, which a source-only linter cannot see); &T{...} is caught
// at the unary & — also out of reach without escape analysis, so only
// the guaranteed allocators are flagged.
func allocatingLiteral(info *types.Info, lit *ast.CompositeLit) (string, bool) {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return "", false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		return "slice literal", true
	case *types.Map:
		return "map literal", true
	}
	return "", false
}

// writesPackageLevel reports whether an lvalue's root identifier is a
// package-level variable (blank assignments excluded).
func writesPackageLevel(info *types.Info, lhs ast.Expr) (token.Pos, string, bool) {
	root := rootIdent(unparen(lhs))
	if root == nil || root.Name == "_" {
		return token.NoPos, "", false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return token.NoPos, "", false
	}
	// Only direct writes to the variable itself (or an element/field
	// path rooted at it) count; writes through pointers read from it are
	// out of reach.
	return root.Pos(), v.Name(), true
}

// mapRangeHazards lists the order-dependent folds inside one range over
// a map: appends and float accumulation into state declared outside the
// range, and serialization of entries to an ordered stream. Integer
// tallies and map-index copies stay silent (commutative / order-blind) —
// metrics.LabeledCounter.Total and .Snapshot are the canonical clean
// cases. A nested map range is skipped here: scanDirect reaches it on its
// own, and each fold is judged against its innermost map range.
func mapRangeHazards(info *types.Info, rng *ast.RangeStmt) []witness {
	var out []witness
	ast.Inspect(rng.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			return !isMapExpr(info, nd.X)
		case *ast.CallExpr:
			if name, ok := serializationSink(info, nd); ok {
				out = append(out, witness{pos: nd.Pos(), what: name + " inside a map range serializes entries"})
			}
		case *ast.AssignStmt:
			switch nd.Tok {
			case token.ASSIGN:
				for i, lhs := range nd.Lhs {
					if i >= len(nd.Rhs) {
						break
					}
					call, ok := unparen(nd.Rhs[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
						continue
					}
					if declaredOutside(info, lhs, rng) {
						out = append(out, witness{pos: nd.Pos(), what: "append into " + strconv.Quote(exprText(lhs)) + " while ranging a map"})
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
				for _, lhs := range nd.Lhs {
					if isFloat(info, lhs) && declaredOutside(info, lhs, rng) {
						out = append(out, witness{pos: nd.Pos(), what: "float accumulation into " + strconv.Quote(exprText(lhs)) + " while ranging a map"})
					}
				}
			}
		}
		return true
	})
	return out
}

// serializationSink matches calls that emit entries to an ordered stream:
// encoder Encode, writer Write/WriteString, and fmt.Fprint* (except to a
// terminal stream, where ordering is cosmetic).
func serializationSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	if pkgPath, funcName, ok := pkgFuncOf(info, call); ok {
		if pkgPath == "fmt" && (funcName == "Fprint" || funcName == "Fprintf" || funcName == "Fprintln") &&
			len(call.Args) > 0 && !isStdStream(call.Args[0]) {
			return "fmt." + funcName, true
		}
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Encode", "Write", "WriteString":
	default:
		return "", false
	}
	// Method calls only (not pkg.Func, handled above).
	if _, isFn := info.Uses[sel.Sel].(*types.Func); !isFn {
		return "", false
	}
	return "." + sel.Sel.Name, true
}

// isStdStream matches os.Stdout / os.Stderr.
func isStdStream(e ast.Expr) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "os" && (sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}

// declaredOutside reports whether the lvalue's root identifier is
// declared outside the range statement (loop-local accumulators, reset
// every iteration, cannot observe cross-iteration order). Map index
// writes (out[k] = v) are order-blind copies.
func declaredOutside(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	lhs = unparen(lhs)
	if idx, ok := lhs.(*ast.IndexExpr); ok && isMapExpr(info, idx.X) {
		return false
	}
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// isMapExpr reports whether e has map type.
func isMapExpr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// pkgFuncOf resolves a call of the form pkg.Func and returns the
// imported package's path and the function name.
func pkgFuncOf(info *types.Info, call *ast.CallExpr) (pkgPath, funcName string, ok bool) {
	sel, ok2 := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	id, ok2 := sel.X.(*ast.Ident)
	if !ok2 {
		return "", "", false
	}
	pn, ok2 := info.Uses[id].(*types.PkgName)
	if !ok2 {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// chainString renders the witness chain starting at w inside fn:
// "dp.Optimize → dp.solve → dp.stamp: time.Now()". Cycles through
// recursive summaries are cut at the first repeat.
func (p *Program) chainString(fn *types.Func, w *witness) string {
	var parts []string
	parts = append(parts, funcDisplayName(fn))
	seen := map[*types.Func]bool{fn: true}
	for w != nil && w.via != nil && !seen[w.via] {
		seen[w.via] = true
		parts = append(parts, funcDisplayName(w.via))
		next := p.funcs[w.via]
		if next == nil || next.sum == nil {
			break
		}
		w = nextWitness(next.sum, w)
	}
	return strings.Join(parts, " -> ")
}

// nextWitness finds, in the callee summary, the witness matching the
// fact the caller's witness described (same what), so chains descend to
// the root cause.
func nextWitness(callee *Summary, w *witness) *witness {
	for _, cw := range callee.facts {
		if cw != nil && cw.what == w.what {
			return cw
		}
	}
	if cw := callee.acquires[w.what]; cw != nil {
		return cw
	}
	return nil
}

// FuncSummary is the exported, JSON-ready view of one Summary, dumped by
// `evlint -summaries` and uploaded as a CI artifact so the certification
// state of every function is inspectable per commit.
type FuncSummary struct {
	Func      string   `json:"func"`
	Package   string   `json:"package"`
	Effects   []string `json:"effects,omitempty"`
	Blocks    bool     `json:"blocks"`
	Unguarded bool     `json:"unguardedBlock"`
	Allocates bool     `json:"allocates"`
	Acquires  []string `json:"acquires,omitempty"`
	LockEdges []string `json:"lockEdges,omitempty"`
	CtxParam  bool     `json:"ctxParam"`
	Dynamic   bool     `json:"dynamic"`
	Certified bool     `json:"certified,omitempty"`
	Hot       bool     `json:"hot,omitempty"`
}

// Summaries returns every function's exported summary, sorted by
// package then function name, ready for JSON encoding.
func (p *Program) Summaries() []FuncSummary {
	out := make([]FuncSummary, 0, len(p.order))
	for _, n := range p.order {
		s := n.sum
		fs := FuncSummary{
			Func:      funcDisplayName(n.fn),
			Package:   n.pkg.PkgPath,
			Blocks:    s.facts[factBlocking] != nil,
			Unguarded: s.facts[factUnguarded] != nil,
			Allocates: s.facts[factAlloc] != nil,
			CtxParam:  s.hasCtx,
			Dynamic:   s.dynamic,
			Certified: s.certified,
			Hot:       s.hot,
		}
		for i, w := range s.facts[:numEffects] {
			if w != nil {
				fs.Effects = append(fs.Effects, effectNames[i])
			}
		}
		fs.Acquires = stable.SortedKeys(s.acquires)
		for _, key := range stable.SortedKeys(s.lockEdges) {
			fs.LockEdges = append(fs.LockEdges, strings.ReplaceAll(key, "\x00", " -> "))
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package != out[j].Package {
			return out[i].Package < out[j].Package
		}
		return out[i].Func < out[j].Func
	})
	return out
}
