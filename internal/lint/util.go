package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the function object a call expression invokes, for
// both package-level functions (os.Rename) and methods (f.Sync). Returns
// nil for builtins, conversions, and calls through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	if pass.TypesInfo == nil {
		return nil
	}
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (methods never match).
func isPkgFunc(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// methodRecvType returns the receiver's type string with any pointer
// stripped (e.g. "os.File" for (*os.File).Sync), or "" for non-methods.
func methodRecvType(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return strings.TrimPrefix(sig.Recv().Type().String(), "*")
}

// isMethodOn reports whether call invokes a method named name declared on
// recvType (pointer or value receiver; recvType like "os.File").
func isMethodOn(pass *Pass, call *ast.CallExpr, recvType, name string) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	return methodRecvType(fn) == recvType
}

// isContextType reports whether t is context.Context (possibly through a
// named alias's underlying interface identity is kept: we match the named
// type itself, which is how ctx parameters are invariably declared).
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
