package lint

import (
	"go/ast"
	"go/token"
)

// concurrencyBearing is the store/runner/serve surface: the packages whose
// goroutines outlive single function calls (heartbeats, worker pools,
// pollers, campaign drains) and therefore must be cancellable. The
// ROADMAP's multi-machine growth happens exactly here.
var concurrencyBearing = []string{
	"gurita/internal/runner",
	"gurita/internal/cachestore",
	"gurita/internal/cachestore/fsstore",
	"gurita/internal/cachestore/httpstore",
	"gurita/internal/serve",
	"gurita/internal/serve/cachehttp",
	"gurita/internal/serve/fairq",
}

// CtxFlow enforces context discipline on the concurrency-bearing surface:
//
//  1. Every unbounded wait loop (`for { … }` containing a select, channel
//     operation, or time.Sleep) must observe cancellation — a call to
//     ctx.Done()/ctx.Err(), or a receive from a non-timer channel (a stop
//     or done channel is a cancellation signal; a ticker is not). A loop
//     that only waits on timers spins forever after the campaign is
//     cancelled, which is precisely the goroutine leak the drain contract
//     forbids.
//  2. context.Background()/context.TODO() may not be minted mid-stack:
//     they detach the callee from the caller's cancellation and deadline.
//     The process root (a server's lifetime context) is the one legitimate
//     minting site and carries a //lint:ignore ctxflow justification.
var CtxFlow = &Analyzer{
	Name:     "ctxflow",
	Packages: concurrencyBearing,
	Run:      runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(pass, n, "context", "Background") || isPkgFunc(pass, n, "context", "TODO") {
					fn := calleeFunc(pass, n)
					pass.Reportf(n.Pos(),
						"context.%s mints a root context, detaching this code from the caller's cancellation; thread the caller's ctx through (process-root contexts carry a //lint:ignore ctxflow justification)",
						fn.Name())
				}
			case *ast.ForStmt:
				if n.Cond != nil || n.Body == nil {
					return true
				}
				if !loopWaits(pass, n.Body) {
					return true
				}
				if !loopObservesCancel(pass, n.Body) {
					pass.Reportf(n.For,
						"unbounded wait loop never observes ctx.Done()/ctx.Err() or a cancellation channel; a cancelled or draining campaign would leave this goroutine running forever")
				}
			}
			return true
		})
	}
	return nil
}

// loopWaits reports whether the loop body contains a blocking wait: a
// select, a channel operation, or time.Sleep. Function literals are
// skipped — a goroutine spawned from the loop waits on its own account.
func loopWaits(pass *Pass, body *ast.BlockStmt) bool {
	waits := false
	ast.Inspect(body, func(n ast.Node) bool {
		if waits {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt, *ast.SendStmt:
			waits = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				waits = true
			}
		case *ast.CallExpr:
			if isPkgFunc(pass, n, "time", "Sleep") {
				waits = true
			}
		}
		return !waits
	})
	return waits
}

// loopObservesCancel reports whether the loop body consults a cancellation
// signal: ctx.Done()/ctx.Err() on a context.Context, or a receive from a
// channel that is not a timer (time.After/Tick results and Timer/Ticker .C
// fields fire forever; a stop/done channel closes exactly once).
func loopObservesCancel(pass *Pass, body *ast.BlockStmt) bool {
	observes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if observes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Err") &&
				isContextType(pass.TypeOf(sel.X)) {
				observes = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isTimerChan(pass, n.X) {
				observes = true
			}
		}
		return !observes
	})
	return observes
}

// isTimerChan recognizes channels that deliver time, not cancellation:
// time.After(...)/time.Tick(...) results and the .C field of a
// time.Timer/time.Ticker.
func isTimerChan(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if isPkgFunc(pass, e, "time", "After") || isPkgFunc(pass, e, "time", "Tick") {
			return true
		}
		// ctx.Done() in `<-ctx.Done()` is handled by the caller's CallExpr
		// branch already; any other call result is treated as a signal.
		return false
	case *ast.SelectorExpr:
		if e.Sel.Name != "C" {
			return false
		}
		t := pass.TypeOf(e.X)
		if t == nil {
			return false
		}
		s := t.String()
		return s == "*time.Timer" || s == "*time.Ticker" || s == "time.Timer" || s == "time.Ticker"
	}
	return false
}
