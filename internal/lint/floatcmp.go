package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmp flags exact ==/!= comparisons (and switch statements) on
// floating-point quantities — rates, times, water levels. Two computations
// of "the same" rate can differ in the last bit depending on summation
// order, so exact comparison is precisely how the delta≡batch contract
// drifts apart silently. Use fmath.AlmostEqual (or an explicit epsilon
// like netmod's epsRate) instead.
//
// Two cases are exempt without annotation:
//
//   - comparison against an exact-zero constant: zero is exactly
//     representable and the codebase uses it as an assigned sentinel
//     ("no allocation", "unset"), never as a computed value;
//   - comparisons where both operands are constants (decided at compile
//     time, no runtime drift).
//
// Deliberate bitwise equality — e.g. change detection on a caller-set
// field — is justified with //lint:ignore floatcmp <reason>.
var FloatCmp = &Analyzer{
	Name:     "floatcmp",
	Packages: outputBearing,
	Run:      runFloatCmp,
}

func runFloatCmp(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if !isFloatType(pass.TypeOf(n.X)) && !isFloatType(pass.TypeOf(n.Y)) {
					return true
				}
				xc, yc := constValue(pass, n.X), constValue(pass, n.Y)
				if xc != nil && yc != nil {
					return true
				}
				if isZeroConst(xc) || isZeroConst(yc) {
					return true
				}
				pass.Reportf(n.OpPos,
					"exact float comparison %s %s %s drifts with summation order; use fmath.AlmostEqual / an epsilon, or justify bitwise intent with //lint:ignore floatcmp <reason>",
					types.ExprString(n.X), n.Op, types.ExprString(n.Y))
			case *ast.SwitchStmt:
				if n.Tag != nil && isFloatType(pass.TypeOf(n.Tag)) {
					pass.Reportf(n.Switch,
						"switch on float %s compares exactly per case; rewrite with epsilon comparisons", types.ExprString(n.Tag))
				}
			}
			return true
		})
	}
	return nil
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func constValue(pass *Pass, e ast.Expr) constant.Value {
	if pass.TypesInfo == nil {
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Value
	}
	return nil
}

func isZeroConst(v constant.Value) bool {
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}
