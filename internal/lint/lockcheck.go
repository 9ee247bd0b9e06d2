package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck enforces the repo's sync.Mutex/RWMutex discipline in the
// concurrency-bearing packages. Two families of findings:
//
//  1. Blocking operations while a mutex is held: channel sends/receives,
//     select (without a default), time.Sleep, file and network I/O between
//     Lock and Unlock (or, with a deferred Unlock, anywhere after the
//     Lock). Blocking under a lock turns an unrelated slow peer into a
//     serialization point — exactly the failure mode that would let one
//     stalled tenant wedge the daemon's admission path.
//  2. Exit paths that skip Unlock: a return reached while a mutex is held
//     without a deferred Unlock covering it leaves the lock held forever.
//
// Locks copied by value are go vet's copylocks check, which CI runs.
//
// The analysis is lexical per function and keys critical sections by the
// lock's receiver expression text ("s.mu", "c.mu"), the same granularity
// the code uses to talk about its own locks. Branch-local Unlock+return
// (the handleSubmit early-exit shape) is understood; genuinely exotic
// flows carry a //lint:ignore lockcheck justification.
var LockCheck = &Analyzer{
	Name:     "lockcheck",
	Packages: outputBearing,
	Run:      runLockCheck,
}

func runLockCheck(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				// Literals get their own walk with a fresh lock state: a
				// goroutine or callback does not inherit the spawner's
				// critical section.
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				walkLocked(pass, body.List, map[string]*lockInfo{})
			}
			return true
		})
	}
	return nil
}

// lockInfo is one held lock within the current lexical walk.
type lockInfo struct {
	pos      token.Pos // the Lock/RLock call
	deferred bool      // a deferred Unlock covers every exit path
}

func cloneHeld(held map[string]*lockInfo) map[string]*lockInfo {
	out := make(map[string]*lockInfo, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockMethodCall matches a Lock/RLock/Unlock/RUnlock call on a
// sync.Mutex/RWMutex and returns the lock's identity (the receiver
// expression text) and the method name.
func lockMethodCall(pass *Pass, call *ast.CallExpr) (key, name string, ok bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	recv := methodRecvType(fn)
	if recv != "sync.Mutex" && recv != "sync.RWMutex" {
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}

// walkLocked interprets a statement list tracking which locks are held.
// Branches are walked with a cloned state: a branch that unlocks and
// returns does not release the lock for the fall-through path, and a lock
// taken inside a branch does not leak out (conservative in both
// directions).
func walkLocked(pass *Pass, stmts []ast.Stmt, held map[string]*lockInfo) {
	for _, s := range stmts {
		walkLockedStmt(pass, s, held)
	}
}

func walkLockedStmt(pass *Pass, s ast.Stmt, held map[string]*lockInfo) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, name, ok := lockMethodCall(pass, call); ok {
				switch name {
				case "Lock", "RLock":
					held[key] = &lockInfo{pos: call.Pos()}
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		reportBlocking(pass, s, held)
	case *ast.DeferStmt:
		if key, name, ok := lockMethodCall(pass, s.Call); ok && (name == "Unlock" || name == "RUnlock") {
			if li := held[key]; li != nil {
				li.deferred = true
			}
			return
		}
		// defer func() { … mu.Unlock() … }() also covers every exit.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if key, name, ok := lockMethodCall(pass, call); ok && (name == "Unlock" || name == "RUnlock") {
					if li := held[key]; li != nil {
						li.deferred = true
					}
				}
				return true
			})
		}
	case *ast.ReturnStmt:
		for key, li := range held {
			if !li.deferred {
				pass.Reportf(s.Pos(),
					"return while %s is locked (Lock at line %d) with no deferred Unlock on this path; unlock before returning or defer the Unlock",
					key, pass.Fset.Position(li.pos).Line)
			}
		}
		reportBlocking(pass, s, held)
	case *ast.BlockStmt:
		walkLocked(pass, s.List, held)
	case *ast.LabeledStmt:
		walkLockedStmt(pass, s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockedStmt(pass, s.Init, held)
		}
		reportBlockingExpr(pass, s.Cond, held)
		walkLocked(pass, s.Body.List, cloneHeld(held))
		if s.Else != nil {
			walkLockedStmt(pass, s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockedStmt(pass, s.Init, held)
		}
		reportBlockingExpr(pass, s.Cond, held)
		walkLocked(pass, s.Body.List, cloneHeld(held))
	case *ast.RangeStmt:
		reportBlockingExpr(pass, s.X, held)
		walkLocked(pass, s.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockedStmt(pass, s.Init, held)
		}
		reportBlockingExpr(pass, s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLocked(pass, cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLocked(pass, cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			for key := range held {
				pass.Reportf(s.Select,
					"select blocks while %s is locked; release the lock before waiting (a stalled peer would serialize every other holder)", key)
			}
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkLocked(pass, cc.Body, cloneHeld(held))
			}
		}
	case *ast.GoStmt:
		// Runs on another goroutine: neither blocks the holder nor
		// inherits the critical section (the literal is walked separately).
	default:
		reportBlocking(pass, s, held)
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// reportBlocking flags blocking operations inside a simple statement while
// any lock is held. Function literals are skipped: they execute later.
func reportBlocking(pass *Pass, s ast.Stmt, held map[string]*lockInfo) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			reportHeld(pass, n.Pos(), held, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportHeld(pass, n.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if desc, ok := blockingCall(pass, n); ok {
				reportHeld(pass, n.Pos(), held, desc)
			}
		}
		return true
	})
}

func reportBlockingExpr(pass *Pass, e ast.Expr, held map[string]*lockInfo) {
	if e == nil || len(held) == 0 {
		return
	}
	reportBlocking(pass, &ast.ExprStmt{X: e}, held)
}

func reportHeld(pass *Pass, pos token.Pos, held map[string]*lockInfo, what string) {
	for key := range held {
		pass.Reportf(pos, "%s while %s is locked; move the blocking operation outside the critical section", what, key)
	}
}

// osBlockingFuncs are package-level os functions that hit the filesystem.
var osBlockingFuncs = map[string]bool{
	"ReadFile": true, "WriteFile": true, "Open": true, "OpenFile": true,
	"Create": true, "CreateTemp": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "MkdirAll": true, "Mkdir": true, "Stat": true,
	"Lstat": true, "ReadDir": true, "Chtimes": true,
}

var fileBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"Sync": true, "Close": true, "Seek": true, "Truncate": true,
}

var httpBlockingFuncs = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

// blockingCall classifies calls that can block on I/O, time, or peers.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	recv := methodRecvType(fn)
	if recv == "" {
		switch fn.Pkg().Path() {
		case "time":
			if name == "Sleep" {
				return "time.Sleep", true
			}
		case "os":
			if osBlockingFuncs[name] {
				return "file I/O (os." + name + ")", true
			}
		case "net":
			if strings.HasPrefix(name, "Dial") || name == "Listen" || name == "ListenPacket" {
				return "network call (net." + name + ")", true
			}
		case "net/http":
			if httpBlockingFuncs[name] {
				return "network call (http." + name + ")", true
			}
		}
		return "", false
	}
	switch {
	case recv == "sync.WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", true
	case recv == "os.File" && fileBlockingMethods[name]:
		return "file I/O ((*os.File)." + name + ")", true
	case recv == "net/http.Client" && (name == "Do" || httpBlockingFuncs[name]):
		return "network call (http.Client." + name + ")", true
	case recv == "net/http.Server" && (name == "Serve" || name == "ListenAndServe" || name == "Shutdown"):
		return "network call (http.Server." + name + ")", true
	}
	return "", false
}
