package runner

import (
	"context"
	"errors"
	"sync"
	"time"
)

// defaultTakeoverStall is the follower-takeover deadline used when
// Flight.takeoverStall is zero: how long a duplicate caller waits on an
// in-flight leader before re-executing independently. A Flight lives in
// one process, so a leader never dies without its followers (a SIGKILL ends
// both); the deadline guards against a leader whose trial wedged, such as a
// daemon trial that neither finishes nor observes its cancelled context.
// The wait covers the leader's whole execution, so it must dwarf a trial.
const defaultTakeoverStall = time.Minute

// ErrFlightStalled is returned to a follower whose leader exceeded the
// takeover deadline without completing. The runner reacts by re-checking
// the cache and executing independently — the idempotent-publish property
// makes the duplicate harmless.
var ErrFlightStalled = errors.New("runner: flight leader stalled past takeover deadline")

// Flight coalesces concurrent executions of the same cache key: when several
// campaigns (the daemon's tenants) race to execute an identical trial, one
// caller — the leader — runs it and every concurrent duplicate waits for the
// leader's outcome instead of re-simulating. Combined with the shared
// content-addressed cache this makes the cache a true cross-tenant dedup
// layer: a key is computed at most once no matter how many tenants ask for
// it, concurrently or after the fact.
//
// A Flight is shared across campaigns by passing the same instance in each
// campaign's Options.Flight. All sharers must use the same result type R and
// the same cache schema (distinct schemas produce distinct keys, so entries
// of different shapes never meet inside one flight).
//
// The zero value is ready to use.
type Flight struct {
	// takeoverStall bounds how long a follower waits for its leader before
	// giving up with ErrFlightStalled and executing independently; zero
	// selects defaultTakeoverStall.
	takeoverStall time.Duration

	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight execution; done closes when the leader
// finishes and the outcome fields are final.
type flightCall struct {
	done     chan struct{}
	val      any
	attempts int
	err      error
}

// do runs fn under the key's flight slot. The leader executes fn; duplicate
// callers block until the leader finishes and receive its outcome with
// shared=true. A follower stops waiting when ctx dies (its own campaign is
// over) or when the takeover deadline passes without the leader signaling —
// both come back shared=true with the corresponding error, and the caller
// decides whether to re-execute. The slot is vacated when the leader
// returns, so later calls for the same key (e.g. after a cancelled leader)
// start a fresh flight — by then the cache normally answers first.
func (f *Flight) do(ctx context.Context, key string, fn func() (any, int, error)) (val any, attempts int, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall)
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		stall := f.takeoverStall
		if stall == 0 {
			stall = defaultTakeoverStall
		}
		t := time.NewTimer(stall)
		defer t.Stop()
		select {
		case <-c.done:
			return c.val, c.attempts, true, c.err
		case <-ctx.Done():
			return nil, 0, true, context.Cause(ctx)
		case <-t.C:
			return nil, 0, true, ErrFlightStalled
		}
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.attempts, c.err = fn()

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
	return c.val, c.attempts, false, c.err
}
