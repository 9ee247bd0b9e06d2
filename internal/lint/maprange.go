package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `for … range m` over a map whose body can influence event
// order, emitted rates, or output. Go randomizes map iteration order, so
// any order-sensitive body is a direct determinism hazard: appending to a
// slice, emitting output, mutating simulation state, or accumulating
// floating-point values (float addition is not associative, so even a sum
// drifts in its last bits with iteration order — exactly the drift that
// breaks the delta≡batch byte-identity contract).
//
// A loop body is accepted without annotation only when every statement is
// provably order-independent: integer accumulation, idempotent constant
// assignment, inserting into another map, delete, and branches composed of
// those. Everything else needs the keys sorted first (range over the sorted
// slice and the finding disappears) or a justified
// `//lint:sorted <reason>` annotation.
var MapRange = &Analyzer{
	Name:     "maprange",
	Packages: outputBearing,
	Run:      runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if rs.Body == nil || !orderSensitiveBody(pass, rs.Body.List) {
				return true
			}
			if isSortedKeyCollector(pass, f, rs) {
				return true
			}
			pass.Reportf(rs.For,
				"iteration over map %s has an order-sensitive body (map order is randomized); iterate sorted keys, or annotate //lint:sorted <reason>",
				types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// isSortedKeyCollector recognizes the canonical fix idiom — collect the
// keys, sort, then range the slice:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, …)
//
// The body is a single append of the (unique) key variable onto a slice
// that is later passed to a sort/slices call in the same function, which
// canonicalizes the order; flagging it would flag the cure.
func isSortedKeyCollector(pass *Pass, file *ast.File, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 ||
		(asg.Tok != token.ASSIGN && asg.Tok != token.DEFINE) {
		return false
	}
	// The collected slice may be a local (keys) or a scratch field
	// (u.order); match by expression text within the function.
	targetStr := types.ExprString(asg.Lhs[0])
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	} else if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || types.ExprString(call.Args[0]) != targetStr ||
		pass.TypesInfo.ObjectOf(arg) != pass.TypesInfo.ObjectOf(key) {
		return false
	}
	// Look for a sort/slices call taking the collected slice anywhere in
	// the innermost function enclosing the loop.
	fn := enclosingFunc(file, rs.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sfn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || sfn.Pkg() == nil {
			return true
		}
		if p := sfn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if types.ExprString(a) == targetStr {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// enclosingFunc returns the innermost function declaration or literal
// containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n // keep innermost: later matches nest inside earlier
			}
		}
		return true
	})
	return best
}

// orderSensitiveBody reports whether any statement could make the loop's
// effect depend on iteration order.
func orderSensitiveBody(pass *Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if stmtOrderSensitive(pass, s) {
			return true
		}
	}
	return false
}

func stmtOrderSensitive(pass *Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return false
	case *ast.BlockStmt:
		return orderSensitiveBody(pass, s.List)
	case *ast.BranchStmt:
		// continue/break commute; goto can encode arbitrary control flow.
		return s.Tok != token.CONTINUE && s.Tok != token.BREAK
	case *ast.IncDecStmt:
		return !isIntegerType(pass.TypeOf(s.X)) || !callFree(pass, s.X)
	case *ast.AssignStmt:
		return assignOrderSensitive(pass, s)
	case *ast.ExprStmt:
		// delete(m, k) commutes (keys are visited once each); any other
		// call may observe or mutate order-dependent state.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return false
				}
			}
		}
		return true
	case *ast.IfStmt:
		if isExtremumUpdate(pass, s) {
			return false
		}
		if s.Init != nil && stmtOrderSensitive(pass, s.Init) {
			return true
		}
		if !callFree(pass, s.Cond) {
			return true
		}
		if orderSensitiveBody(pass, s.Body.List) {
			return true
		}
		return s.Else != nil && stmtOrderSensitive(pass, s.Else)
	default:
		return true
	}
}

// assignOrderSensitive classifies an assignment inside a map-range body.
func assignOrderSensitive(pass *Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		// Fresh locals are scoped to the iteration; only their later use
		// can leak order, and that use is classified on its own.
		for _, r := range s.Rhs {
			if !callFree(pass, r) {
				return true
			}
		}
		return false
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.AND_NOT_ASSIGN, token.MUL_ASSIGN:
		// Integer accumulation commutes exactly. Float accumulation does
		// not (addition order changes the low bits), so it stays flagged.
		if len(s.Lhs) != 1 || !isIntegerType(pass.TypeOf(s.Lhs[0])) {
			return true
		}
		return !callFree(pass, s.Lhs[0]) || !callFree(pass, s.Rhs[0])
	case token.ASSIGN:
		for i, l := range s.Lhs {
			if idx, ok := l.(*ast.IndexExpr); ok {
				// Writing m2[k] = v visits each key once, so insertion
				// order into another map cannot be observed.
				if t := pass.TypeOf(idx.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && callFree(pass, s.Rhs[min(i, len(s.Rhs)-1)]) {
						continue
					}
				}
				return true
			}
			// x = <constant> is idempotent whichever iteration runs last.
			if i < len(s.Rhs) && pass.TypesInfo != nil {
				if tv, ok := pass.TypesInfo.Types[s.Rhs[i]]; ok && tv.Value != nil {
					continue
				}
			}
			return true
		}
		return false
	default:
		return true
	}
}

// isExtremumUpdate recognizes the running-min/max idiom:
//
//	if v > best { best = v }
//
// The final value is the extremum of the visited multiset whatever the
// iteration order, so it is order-independent — provided the accumulator
// is the only thing updated (tracking e.g. the arg-max key alongside it
// would be order-dependent on ties and stays flagged).
func isExtremumUpdate(pass *Pass, s *ast.IfStmt) bool {
	if s.Init != nil || s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	asg, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	if !callFree(pass, cond.X) || !callFree(pass, cond.Y) {
		return false
	}
	lhs, rhs := types.ExprString(asg.Lhs[0]), types.ExprString(asg.Rhs[0])
	cx, cy := types.ExprString(cond.X), types.ExprString(cond.Y)
	return (lhs == cx && rhs == cy) || (lhs == cy && rhs == cx)
}

// callFree reports whether the expression contains no function calls other
// than pure builtins and type conversions, i.e. evaluating it cannot have
// side effects that leak iteration order.
func callFree(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := map[string]bool{"len": true, "cap": true, "min": true, "max": true,
		"real": true, "imag": true, "complex": true, "abs": true}
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, is := n.(*ast.CallExpr)
		if !is {
			return true
		}
		if pass.TypesInfo != nil {
			if tv, found := pass.TypesInfo.Types[call.Fun]; found && tv.IsType() {
				return true // conversion
			}
		}
		if id, is := call.Fun.(*ast.Ident); is {
			if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && pure[b.Name()] {
				return true
			}
		}
		ok = false
		return false
	})
	return ok
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
