package lint

import (
	"go/ast"
	"go/types"
)

// SeedPlumb enforces that every random source and fault profile is seeded
// from a spec/config field, never from a bare literal. The campaign
// runner's cache is content-addressed over the spec: a literal seed buried
// in code changes results without changing any spec, so cached entries go
// stale invisibly and "same spec, same bytes" stops holding.
//
// Flagged:
//
//	rand.NewSource(42)            // constant seed expression
//	faults.Profile{Seed: 7, …}    // constant Seed field in any struct
//	p.Seed = 7                    // constant assignment to a Seed field
//
// Not flagged: seeds derived from any non-constant expression
// (spec.Seed ^ salt, flag values, function parameters), explicit Seed: 0
// (the documented "inherit the run seed" default), and _test.go files
// (fixtures are definitionally fixed-seed). Named preset scenarios whose
// fixed seed is the point carry //lint:ignore seedplumb <reason>.
var SeedPlumb = &Analyzer{
	Name:     "seedplumb",
	Packages: outputBearing,
	Run:      runSeedPlumb,
}

var seedCtors = map[string]bool{"NewSource": true, "NewPCG": true, "NewChaCha8": true}

func runSeedPlumb(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || !seedCtors[fn.Name()] {
					return true
				}
				if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
					return true
				}
				if len(n.Args) == 0 {
					return true
				}
				for _, arg := range n.Args {
					if constValue(pass, arg) == nil {
						return true // at least one plumbed component
					}
				}
				pass.Reportf(n.Pos(),
					"rand.%s seeded from a literal; derive the seed from a spec/config field so runs are reproducible and cache keys stay content-addressed", fn.Name())
			case *ast.CompositeLit:
				t := pass.TypeOf(n)
				if t == nil || !hasSeedField(t) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "Seed" {
						continue
					}
					if v := constValue(pass, kv.Value); v != nil && !isZeroConst(v) {
						pass.Reportf(kv.Pos(),
							"literal Seed in %s literal; plumb the seed from the spec/config so cache keys stay content-addressed", types.ExprString(n.Type))
					}
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Seed" || i >= len(n.Rhs) {
						continue
					}
					if base := pass.TypeOf(sel.X); base == nil || !hasSeedField(base) {
						continue
					}
					if v := constValue(pass, n.Rhs[i]); v != nil && !isZeroConst(v) {
						pass.Reportf(sel.Pos(),
							"literal assignment to %s; plumb the seed from the spec/config so cache keys stay content-addressed", types.ExprString(sel))
					}
				}
			}
			return true
		})
	}
	return nil
}

// hasSeedField reports whether t (or what it points to) is a struct with a
// field named Seed.
func hasSeedField(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == "Seed" {
			return true
		}
	}
	return false
}
