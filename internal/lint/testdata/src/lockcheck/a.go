// Package lockcheck exercises the mutex-discipline analyzer: blocking
// operations under a held mutex, exit paths that skip Unlock, and the
// suppression machinery (justified directives silence a finding; bare ones
// do not).
package lockcheck

import (
	"os"
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	n  int
}

// ---- blocking under a held lock ------------------------------------------

func sleepUnderLock(g *guarded) {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while g.mu is locked"
	g.mu.Unlock()
}

func sendUnderLock(g *guarded, ch chan int) {
	g.mu.Lock()
	ch <- 1 // want "channel send while g.mu is locked"
	g.mu.Unlock()
}

func recvUnderLock(g *guarded, ch chan int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := <-ch // want "channel receive while g.mu is locked"
	return v
}

func fileIOUnderLock(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = os.ReadFile("x") // want "file I/O \\(os.ReadFile\\) while g.mu is locked"
}

func selectUnderLock(g *guarded, stop chan struct{}) {
	g.mu.Lock()
	select { // want "select blocks while g.mu is locked"
	case <-stop:
	}
	g.mu.Unlock()
}

func selectWithDefaultOK(g *guarded, stop chan struct{}) {
	g.mu.Lock()
	select {
	case <-stop:
	default:
	}
	g.mu.Unlock()
}

func blockAfterUnlockOK(g *guarded, ch chan int) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	ch <- g.n
}

func goroutineNotInherited(g *guarded, ch chan int) {
	g.mu.Lock()
	go func() {
		ch <- 1 // another goroutine: neither blocks the holder nor holds g.mu
	}()
	g.mu.Unlock()
}

// ---- exit paths that skip Unlock -----------------------------------------

func returnWhileLocked(g *guarded) int {
	g.mu.Lock()
	if g.n > 0 {
		return g.n // want "return while g.mu is locked"
	}
	g.mu.Unlock()
	return 0
}

func deferredUnlockOK(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n > 0 {
		return g.n
	}
	return 0
}

func branchUnlockOK(g *guarded) int {
	g.mu.Lock()
	if g.n > 0 {
		n := g.n
		g.mu.Unlock()
		return n
	}
	g.mu.Unlock()
	return 0
}

func deferredFuncLitOK(g *guarded) int {
	g.mu.Lock()
	defer func() {
		g.n++
		g.mu.Unlock()
	}()
	return g.n
}

// ---- suppression both ways -----------------------------------------------

func justifiedSleep(g *guarded) {
	g.mu.Lock()
	//lint:ignore lockcheck fixture: a justified directive silences the finding
	time.Sleep(time.Millisecond)
	g.mu.Unlock()
}

func bareSuppression(g *guarded) {
	g.mu.Lock()
	//lint:ignore lockcheck
	time.Sleep(time.Millisecond) // want "time.Sleep while g.mu is locked"
	g.mu.Unlock()
}
