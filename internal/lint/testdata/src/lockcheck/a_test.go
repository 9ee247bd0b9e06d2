// Test files are exempt: tests hold locks across whatever they like while
// asserting on concurrent behavior. This produces no finding.
package lockcheck

import "time"

func testOnlySleepUnderLock(g *guarded) {
	g.mu.Lock()
	time.Sleep(time.Millisecond)
	g.mu.Unlock()
}
