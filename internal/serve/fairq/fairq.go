// Package fairq is the daemon's tenant-fair admission queue: a bounded
// weighted-fair queue over execution slots.
//
// Each grant goes to the oldest waiter of the tenant with the least
// weight-normalized service (each grant credits its tenant 1/weight); exact
// service ties go to the tenant registered first. Under saturation this
// converges to grant shares proportional to tenant weights.
//
// The queue is deterministic by construction: it runs on a virtual clock (the
// grant counter), never reads wall-clock time, and every decision depends
// only on the grants before it, so a given backlog drains in one possible
// grant order.
package fairq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrFull is returned by Acquire when the waiting set is at capacity; the
// caller should shed load (the daemon answers 429 with Retry-After).
var ErrFull = errors.New("fairq: queue full")

// ErrClosed is returned by Acquire once the queue has been closed (drain).
var ErrClosed = errors.New("fairq: queue closed")

// Config parameterizes a Queue.
type Config struct {
	// Slots is the number of concurrently granted admissions — the global
	// trial-execution concurrency across all tenants. Default 1.
	Slots int
	// Capacity bounds the waiting set across all tenants; an Acquire beyond
	// it fails fast with ErrFull. Default 1024.
	Capacity int
	// OnGrant, when non-nil, observes each grant (tenant ID, in grant order)
	// synchronously under the queue lock. Instrumentation only: it must be
	// fast and must not call back into the Queue.
	OnGrant func(tenant string)
}

// Queue is a bounded, tenant-fair admission queue. Create with New; use one
// Queue per daemon process, shared by every campaign.
type Queue struct {
	mu      sync.Mutex
	cfg     Config
	tenants map[string]*tenant
	order   []*tenant // registration order: the service tie-break
	waiting int
	granted int
	grants  uint64 // virtual clock: one tick per grant
	closed  bool
}

// tenant is one tenant's standing state and its FIFO of waiters.
type tenant struct {
	id      string
	weight  float64
	service float64 // weight-normalized accumulated service
	grants  uint64
	queue   []*waiter
}

// waiter is one queued admission request. ok and err are set under the queue
// lock, at most one of them, before ready closes; a waiter with neither is
// still queued.
type waiter struct {
	t     *tenant
	ready chan struct{}
	ok    bool
	err   error
}

// New builds a Queue.
func New(cfg Config) *Queue {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1024
	}
	return &Queue{cfg: cfg, tenants: make(map[string]*tenant)}
}

// SetTenant registers (or re-weights) a tenant. Weights are relative shares;
// non-positive weights are clamped to 1. Unknown tenants passed to Acquire
// are auto-registered with weight 1, so calling SetTenant is only needed for
// non-default weights.
func (q *Queue) SetTenant(id string, weight float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenantLocked(id)
	if weight <= 0 {
		weight = 1
	}
	t.weight = weight
}

// tenantLocked finds or registers a tenant.
func (q *Queue) tenantLocked(id string) *tenant {
	if t, ok := q.tenants[id]; ok {
		return t
	}
	t := &tenant{id: id, weight: 1}
	q.tenants[id] = t
	q.order = append(q.order, t)
	return t
}

// Acquire queues one trial admission for the tenant and blocks until it is
// granted, the context ends, or the queue closes. On success the returned
// release frees the slot (call it exactly once, when the trial finishes).
// When the waiting set is full it fails immediately with ErrFull.
//
// Acquire is shaped to be used directly as a runner.Gate:
//
//	opts.Gate = func(ctx context.Context, _ int, _ string) (func(), error) {
//		return q.Acquire(ctx, tenantID)
//	}
func (q *Queue) Acquire(ctx context.Context, tenantID string) (release func(), err error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if q.waiting >= q.cfg.Capacity {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w (capacity %d)", ErrFull, q.cfg.Capacity)
	}
	t := q.tenantLocked(tenantID)
	w := &waiter{t: t, ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	q.waiting++
	q.dispatchLocked()
	q.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		return q.releaseFunc(), nil
	case <-ctx.Done():
		q.mu.Lock()
		switch {
		case w.ok:
			// Lost the race: the grant landed while the context died. Give the
			// slot back so it isn't leaked, then report the cancellation.
			q.granted--
			q.dispatchLocked()
		case w.err == nil:
			q.abandonLocked(w)
		}
		// Otherwise Close already settled the waiter.
		q.mu.Unlock()
		return nil, context.Cause(ctx)
	}
}

// releaseFunc returns the once-only slot release for a granted waiter.
func (q *Queue) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			q.granted--
			q.dispatchLocked()
			q.mu.Unlock()
		})
	}
}

// abandonLocked removes a still-queued waiter (context cancellation).
func (q *Queue) abandonLocked(w *waiter) {
	t := w.t
	for i, x := range t.queue {
		if x == w {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	q.waiting--
}

// dispatchLocked grants slots while any are free: each grant goes to the
// head of the queue of the waiting tenant with the least service, ties to
// the earliest registered. Called with the lock held.
func (q *Queue) dispatchLocked() {
	for q.granted < q.cfg.Slots && q.waiting > 0 && !q.closed {
		var best *tenant
		for _, t := range q.order {
			if len(t.queue) > 0 && (best == nil || t.service < best.service) {
				best = t
			}
		}
		w := best.queue[0]
		best.queue[0] = nil
		best.queue = best.queue[1:]
		q.waiting--
		w.ok = true
		q.granted++
		q.grants++
		best.grants++
		best.service += 1 / best.weight
		if q.cfg.OnGrant != nil {
			q.cfg.OnGrant(best.id)
		}
		close(w.ready)
	}
}

// Close drains the queue: every waiter fails with ErrClosed and future
// Acquires are rejected. Granted slots are unaffected — in-flight trials run
// to completion; their releases become no-ops against an empty queue.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, t := range q.order {
		for _, w := range t.queue {
			w.err = ErrClosed
			close(w.ready)
		}
		t.queue = nil
	}
	q.waiting = 0
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	ID      string  `json:"id"`
	Weight  float64 `json:"weight"`
	Waiting int     `json:"waiting"`
	Grants  uint64  `json:"grants"`
	Service float64 `json:"service"` // weight-normalized accumulated service
}

// Stats is a snapshot of the queue.
type Stats struct {
	Waiting  int           `json:"waiting"`
	Granted  int           `json:"granted"`
	Capacity int           `json:"capacity"`
	Slots    int           `json:"slots"`
	Grants   uint64        `json:"grants"`
	Tenants  []TenantStats `json:"tenants"`
}

// Snapshot returns the queue's current accounting, tenants sorted by ID.
func (q *Queue) Snapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{
		Waiting:  q.waiting,
		Granted:  q.granted,
		Capacity: q.cfg.Capacity,
		Slots:    q.cfg.Slots,
		Grants:   q.grants,
	}
	for _, t := range q.order {
		s.Tenants = append(s.Tenants, TenantStats{
			ID: t.id, Weight: t.weight, Waiting: len(t.queue),
			Grants: t.grants, Service: t.service,
		})
	}
	sort.Slice(s.Tenants, func(a, b int) bool { return s.Tenants[a].ID < s.Tenants[b].ID })
	return s
}
