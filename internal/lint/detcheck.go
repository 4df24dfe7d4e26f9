package lint

import (
	"go/ast"
	"go/token"
)

// DetCheck enforces the repo's determinism contract (DESIGN.md §6, §12,
// §13, §14) in the numeric and serving packages — dp, neural, cloud,
// cluster, metrics — where every degraded path must return bit-identical
// plans and every wire artifact must fingerprint identically run to run:
//
//  1. Ranging over a map while appending to, or float-accumulating into,
//     state declared outside the loop — or while serializing entries —
//     produces run-to-run-varying output (Go randomizes map iteration
//     order). The blessed fix is `for _, k := range stable.SortedKeys(m)`
//     (internal/stable). Commutative folds are exempt: integer += tallies
//     and map→map copies do not observe order.
//  2. Top-level math/rand sources seeded from the clock
//     (rand.New(rand.NewSource(time.Now().UnixNano()))) make whole-process
//     behaviour nondeterministic; sources must take an explicit seed.
//  3. Calls to math/rand's package-level functions draw from the global,
//     effectively clock-seeded stream; thread a seeded *rand.Rand.
//  4. The pure solver packages (dp, neural, queue) must not read the wall
//     clock: time.Now/Since/Until there make a solve depend on when it
//     ran. Timestamps enter as parameters.
//
// Rules 1, 3 and 4 are views over the direct sites the call-graph
// summaries record (summary.go); only rule 2, which inspects package-level
// initializers rather than function bodies, walks syntax here.
var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc: "map-order, rand-seed, and wall-clock nondeterminism must stay out of the numeric and serving packages\n\n" +
		"Flags order-dependent accumulation/serialization inside map ranges (use\n" +
		"stable.SortedKeys), clock-seeded or global math/rand sources, and time.Now()\n" +
		"in pure solver packages (dp, neural, queue).",
	Run: runDetCheck,
}

// detCheckScopes are the packages where map-order and rand hazards are
// correctness bugs, matched as complete path segments so fixture packages
// mimic real ones by shape.
var detCheckScopes = []string{"dp", "neural", "cloud", "cluster", "metrics"}

// detPureSolvers are packages whose output must be a pure function of
// their inputs: no wall-clock reads at all.
var detPureSolvers = map[string]bool{"dp": true, "neural": true, "queue": true}

func runDetCheck(pass *Pass) error {
	inScope := anyPathSegment(pass.PkgPath, detCheckScopes)
	pureSolver := detPureSolvers[lastSegment(pass.PkgPath)]
	if !inScope && !pureSolver {
		return nil
	}
	if inScope {
		for _, f := range pass.Files {
			if isTestFile(pass.Fset, f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					checkTopLevelRand(pass, gd)
				}
			}
		}
	}
	// Rules 1, 3 and 4 read the direct sites the summaries recorded.
	for _, n := range pass.funcs() {
		if inScope {
			for _, w := range n.sum.sites[effMapOrder] {
				pass.Reportf(w.pos,
					"%s: Go randomizes map iteration order, so the result varies run to run; iterate stable.SortedKeys (internal/stable) or sort the result where it is built",
					w.what)
			}
			for _, w := range n.sum.sites[effRand] {
				pass.Reportf(w.pos,
					"%s draws from the global math/rand source (clock-seeded, process-wide): thread a seeded *rand.Rand instead",
					w.what)
			}
		}
		if pureSolver {
			for _, w := range n.sum.sites[effTime] {
				pass.Reportf(w.pos,
					"%s in pure solver package %s makes the solve depend on when it ran; take the timestamp as a parameter",
					w.what, lastSegment(pass.PkgPath))
			}
		}
	}
	return nil
}

// checkTopLevelRand flags package-level vars whose initializer builds a
// math/rand source from the wall clock.
func checkTopLevelRand(pass *Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			usesRandNew, usesClock := false, false
			ast.Inspect(val, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkgPath, funcName, ok := pkgFuncOf(pass.TypesInfo, call); ok &&
					pkgPath == "math/rand" && (funcName == "New" || funcName == "NewSource") {
					usesRandNew = true
				}
				if kind, _, ok := callFact(pass.TypesInfo, call); ok && kind == effTime {
					usesClock = true
				}
				return true
			})
			if usesRandNew && usesClock {
				pass.Reportf(val.Pos(),
					"top-level math/rand source seeded from the clock: every run draws a different stream; seed explicitly or inject the source")
			}
		}
	}
}
