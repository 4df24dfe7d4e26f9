package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// floatEqPackages are the numeric packages (by final import-path
// segment) where float equality is a correctness hazard: the DP's
// bit-identical parallel relaxation (PR 1) and the accumulation-order
// contract of the neural kernels (PR 2) both depend on disciplined float
// comparisons.
var floatEqPackages = map[string]bool{
	"dp":      true,
	"ev":      true,
	"queue":   true,
	"neural":  true,
	"traffic": true,
}

// FloatEq flags == and != between floating-point operands in non-test
// code of the numeric packages. Comparing floats for exact equality is
// almost always a latent bug: two mathematically equal expressions can
// differ in the last ulp depending on evaluation order. The one blessed
// idiom — comparing against a literal 0 (or a constant that folds to 0)
// used as an "unset field" sentinel, pervasive in the Config defaulting
// code — is allowed. Intentional exact comparisons (cost tie-breaks,
// +Inf sentinels) take a //lint:allow floateq pragma so the intent is
// recorded at the comparison site.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc: "no ==/!= on floating-point operands in the numeric packages\n\n" +
		"Allowed: comparisons against literal 0 (config-default sentinels) and sites\n" +
		"carrying a //lint:allow floateq pragma.",
	Run: runFloatEq,
}

func runFloatEq(pass *Pass) error {
	if !floatEqPackages[lastSegment(pass.PkgPath)] {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypesInfo, be.X) && !isFloat(pass.TypesInfo, be.Y) {
				return true
			}
			if isZeroConst(pass, be.X) || isZeroConst(pass, be.Y) {
				return true // blessed sentinel: comparison against zero
			}
			pass.Reportf(be.OpPos,
				"floating-point %s comparison: use an epsilon, math.IsInf/IsNaN, or //lint:allow floateq with a reason",
				be.Op)
			return true
		})
	}
	return nil
}

func isFloat(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a compile-time numeric constant equal
// to zero — the allowlisted "field not set" sentinel.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
