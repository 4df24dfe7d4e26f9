package lint

import "strings"

// PurityCert certifies the solver entrypoints as transitively free of
// nondeterministic effects — the interprocedural closure of detcheck's
// contract (a time.Now() two calls deep inside dp.Optimize is invisible
// to the per-function analyzer, but not to the summaries).
//
// The contract has two halves:
//
//  1. Required entrypoints (the public DP and neural solve surface,
//     requiredPure below) MUST carry a `//lint:certify pure` line in
//     their doc comment. A missing annotation is a finding, so the
//     certification surface can only grow deliberately.
//  2. Every certified function — required or opted in — must have a
//     summary free of all four effect families: wall-clock reads,
//     global math/rand draws, order-dependent map-range folds, and
//     package-level variable writes, including everything reachable
//     through static calls. A violated certificate is reported with the
//     full witness chain down to the root cause.
//
// Dynamic call sites (function values, interface methods) are outside
// the certificate: the solvers take callback hooks (windows functions,
// progress sinks) whose bodies belong to the caller. The summary's
// Dynamic bit is surfaced in `evlint -summaries` so the hole stays
// visible; DESIGN.md §15 records the boundary.
var PurityCert = &Analyzer{
	Name: "puritycert",
	Doc: "solver entrypoints must be certified (//lint:certify pure) and transitively free of nondeterministic effects\n\n" +
		"dp.Optimize*, dp.SweepDepartures*, dp.BuildRouteTables, RouteTables.StitchCtx\n" +
		"and the neural Train/Pretrain/Fit/Predict surface must carry the certification\n" +
		"annotation, and the interprocedural summaries must prove no wall-clock, global\n" +
		"rand, map-order or global-write effect is reachable from them.",
	Run: runPurityCert,
}

// requiredPure maps a package's last path segment to the entrypoint
// names (functions or methods) that must be certified there. Fixture
// packages mimic the real ones by path shape ("puritycert/dp" scopes
// like "evvo/internal/dp").
var requiredPure = map[string]map[string]bool{
	"dp": {
		"Optimize": true, "OptimizeCtx": true,
		"SweepDepartures": true, "SweepDeparturesCtx": true,
		"BuildRouteTables": true, "StitchCtx": true,
	},
	"neural": {
		"Train": true, "Pretrain": true, "Fit": true, "Predict": true,
	},
}

func runPurityCert(pass *Pass) error {
	required := requiredPure[lastSegment(pass.PkgPath)]
	for _, n := range pass.funcs() {
		s := n.sum
		if required[n.fn.Name()] && n.fn.Exported() && !s.certified {
			pass.Reportf(n.decl.Pos(),
				"%s is a solver entrypoint and must carry `//lint:certify pure` in its doc comment (puritycert enforces the certificate transitively)",
				funcDisplayName(n.fn))
			continue
		}
		if !s.certified {
			continue
		}
		for kind, w := range s.facts[:numEffects] {
			if w == nil {
				continue
			}
			chain := pass.Prog.chainString(n.fn, w)
			detail := w.what
			if !strings.Contains(chain, "->") {
				chain = funcDisplayName(n.fn)
			}
			pass.Reportf(w.pos,
				"%s is certified pure but may observe %s (%s) via %s; remove the effect or move it out of the certified closure",
				funcDisplayName(n.fn), effectNames[kind], detail, chain)
		}
	}
	return nil
}
