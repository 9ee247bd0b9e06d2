package lint

import (
	"go/ast"
)

// durabilityCritical is where bytes on disk are load-bearing across
// crashes: the store's cache entries, lease files and manifest shards, the
// runner, and the daemon's campaign manifests. PR 8's kill -9 chaos harness
// proves the contract dynamically; this analyzer pins the code shapes it
// relies on.
var durabilityCritical = []string{
	"gurita/internal/runner",
	"gurita/internal/cachestore/fsstore",
	"gurita/internal/serve",
	"gurita/internal/serve/cachehttp",
}

// Durability enforces the temp+fsync+rename write protocol in the
// durability-critical packages:
//
//  1. Direct os.WriteFile/os.Create truncate or tear in place; every
//     durable write goes through a blessed atomic helper — a function that
//     combines os.CreateTemp, File.Sync, and os.Rename. os.Rename outside
//     such a helper commits bytes that were never fsynced (the rename can
//     be reordered past the data by a crash).
//  2. Ignored errors from File.Sync, os.Rename, and File.Close are flagged:
//     a swallowed Sync error converts "durable" into "probably written".
//     One idiom is exempt structurally — Close ignored while abandoning a
//     failed write, recognized by an os.Remove later in the same block
//     (the remove is the operative cleanup; the close error adds nothing).
//     Read-only closes (directory handles, read paths) carry a
//     //lint:ignore durability justification instead.
var Durability = &Analyzer{
	Name:     "durability",
	Packages: durabilityCritical,
	Run:      runDurability,
}

func runDurability(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		blessed := blessedWriters(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isPkgFunc(pass, call, "os", "WriteFile"):
				pass.Reportf(call.Pos(),
					"direct os.WriteFile in a durability-critical package; write via a temp+fsync+rename helper (fsstore.WriteFileAtomic) so a crash cannot tear or lose the file")
			case isPkgFunc(pass, call, "os", "Create"):
				pass.Reportf(call.Pos(),
					"direct os.Create truncates in place in a durability-critical package; write via a temp+fsync+rename helper instead")
			case isPkgFunc(pass, call, "os", "Rename"):
				if fn := enclosingFunc(f, call.Pos()); fn != nil {
					if fd, ok := fn.(*ast.FuncDecl); ok && blessed[fd] {
						return true
					}
				}
				pass.Reportf(call.Pos(),
					"os.Rename outside a blessed temp+fsync+rename helper: the enclosing function must fsync the temp file (os.CreateTemp + File.Sync) before committing the rename")
			}
			return true
		})
		checkIgnoredErrors(pass, f)
	}
	return nil
}

// blessedWriters identifies the atomic-write helpers: functions that
// combine os.CreateTemp, a File.Sync, and os.Rename. Inside them the
// rename IS the protocol.
func blessedWriters(pass *Pass, f *ast.File) map[*ast.FuncDecl]bool {
	out := map[*ast.FuncDecl]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var hasTemp, hasSync, hasRename bool
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isPkgFunc(pass, call, "os", "CreateTemp"):
				hasTemp = true
			case isMethodOn(pass, call, "os.File", "Sync"):
				hasSync = true
			case isPkgFunc(pass, call, "os", "Rename"):
				hasRename = true
			}
			return true
		})
		if hasTemp && hasSync && hasRename {
			out[fd] = true
		}
	}
	return out
}

// checkIgnoredErrors walks every statement list looking for Sync/Rename/
// Close calls whose error result is discarded.
func checkIgnoredErrors(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, s := range list {
			call, kind := ignoredDurableCall(pass, s)
			if call == nil {
				continue
			}
			if kind == "Close" && abandonedWriteAfter(pass, list[i+1:]) {
				// tmp.Close(); os.Remove(tmp.Name()); return err — the
				// abandon idiom: the remove is the cleanup that matters.
				continue
			}
			pass.Reportf(call.Pos(),
				"%s error ignored in a durability-critical package; handle it (or, for read-only closes, annotate //lint:ignore durability <reason>)", kind)
		}
		return true
	})
}

// ignoredDurableCall matches a statement that discards the error of a
// durable-write call: a bare expression statement, a blank-only
// assignment, or a defer.
func ignoredDurableCall(pass *Pass, s ast.Stmt) (*ast.CallExpr, string) {
	var call *ast.CallExpr
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil, ""
		}
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
				return nil, ""
			}
		}
		call, _ = s.Rhs[0].(*ast.CallExpr)
	}
	if call == nil {
		return nil, ""
	}
	switch {
	case isMethodOn(pass, call, "os.File", "Sync"):
		return call, "File.Sync"
	case isMethodOn(pass, call, "os.File", "Close"):
		return call, "Close"
	case isPkgFunc(pass, call, "os", "Rename"):
		return call, "os.Rename"
	}
	return nil, ""
}

// abandonedWriteAfter reports whether the remaining statements of the block
// remove a file — the signature of abandoning a failed write.
func abandonedWriteAfter(pass *Pass, rest []ast.Stmt) bool {
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(pass, call, "os", "Remove") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
