// Package fairq is the daemon's tenant-fair admission queue, and it is
// dogfooding: instead of a bespoke weighted-fair dispatcher it drives
// admission through the repo's own scheduling contract (sim.Scheduler, the
// interface every policy in internal/sched implements). Tenants are modelled
// as coflows, queued trials as that coflow's flows, and the configured policy
// assigns priority queues exactly as it would inside the simulator; the
// dispatcher then grants the waiting trial in the best (queue, arrival)
// position. The paper's thesis — one scheduling contract serving
// heterogeneous workloads — gets exercised on the daemon's own request queue.
//
// The adapter is deterministic by construction: it runs on a virtual clock
// (the grant counter), never reads wall-clock time, and breaks every tie by
// arrival sequence, so a given sequence of Acquire/Release calls produces one
// possible grant order. Weighted fairness comes from service accounting: each
// grant credits the tenant-coflow's BytesSent with 1/weight, so any policy
// that favours the least-served coflow (see WeightedFair) yields grant shares
// proportional to tenant weights under saturation.
package fairq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"gurita/internal/coflow"
	"gurita/internal/sim"
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
	// Queues is the priority-queue count handed to the policy via sim.Env,
	// mirroring the simulator's switch queues. Default 4.
	Queues int
	// Policy is the scheduling policy driving dispatch order. It sees
	// tenants as coflows and waiting trials as flows; policies keyed on
	// observable service (CoflowState.BytesSent) are the ones that produce
	// tenant fairness. Default: NewWeightedFair(). The tenant set is open,
	// so the queue builds its states by hand and passes no population in
	// sim.Env: only policies that keep no per-job or per-coflow tables work
	// here (WeightedFair, PFS, Aalo with live coordination). The others
	// size such tables from Env.Jobs and Env.Coflows in Init.
	Policy sim.Scheduler
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
	policy  sim.Scheduler
	tenants map[string]*tenant
	waiting []*waiter
	added   []*sim.FlowState // flows enqueued since the last policy call
	dirty   []*sim.FlowState // reusable change-report buffer
	granted int
	seq     uint64 // arrival counter: global FIFO tie-break
	grants  uint64 // virtual clock: one tick per grant
	nextCID coflow.CoflowID
	nextFID coflow.FlowID
	closed  bool
}

// tenant is one tenant's standing state: its synthetic coflow (the policy's
// view) plus service accounting.
type tenant struct {
	id     string
	weight float64
	cs     *sim.CoflowState
	js     *sim.JobState

	waiting int
	grants  uint64
}

// waiter is one queued admission request.
type waiter struct {
	t     *tenant
	fs    *sim.FlowState
	seq   uint64
	ready chan struct{}
	ok    bool // granted (set under the queue lock before ready closes)
	err   error
}

// New builds a Queue. The policy's Init runs here, with a nil topology —
// admission scheduling has no fabric, only queues.
func New(cfg Config) *Queue {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1024
	}
	if cfg.Queues < 1 {
		cfg.Queues = 4
	}
	if cfg.Policy == nil {
		cfg.Policy = NewWeightedFair()
	}
	q := &Queue{cfg: cfg, policy: cfg.Policy, tenants: make(map[string]*tenant)}
	q.policy.Init(sim.Env{Queues: cfg.Queues, Now: q.virtualNow})
	return q
}

func (q *Queue) virtualNow() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return float64(q.grants)
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

// tenantLocked finds or creates a tenant, wiring its synthetic job/coflow
// into the policy's lifecycle callbacks (OnJobArrival at registration,
// OnCoflowStart at first queued trial).
func (q *Queue) tenantLocked(id string) *tenant {
	if t, ok := q.tenants[id]; ok {
		return t
	}
	q.nextCID++
	cf := &coflow.Coflow{ID: q.nextCID, Stage: 1}
	job := &coflow.Job{ID: coflow.JobID(q.nextCID), Coflows: []*coflow.Coflow{cf}, NumStages: 1}
	cf.Job = job
	cs := &sim.CoflowState{Coflow: cf, Phase: sim.PhaseWaiting}
	js := &sim.JobState{Job: job, Coflows: []*sim.CoflowState{cs}, RemainingCoflows: 1}
	cs.Job = js
	t := &tenant{id: id, weight: 1, cs: cs, js: js}
	q.tenants[id] = t
	q.policy.OnJobArrival(js)
	return t
}

// Acquire queues one trial admission for the tenant and blocks until the
// policy grants it, the context ends, or the queue closes. On success the
// returned release frees the slot (call it exactly once, when the trial
// finishes). When the waiting set is full it fails immediately with ErrFull.
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
	if len(q.waiting) >= q.cfg.Capacity {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w (capacity %d)", ErrFull, q.cfg.Capacity)
	}
	t := q.tenantLocked(tenantID)
	q.nextFID++
	fl := &coflow.Flow{ID: q.nextFID, Size: 1}
	fs := &sim.FlowState{Flow: fl, Coflow: t.cs, Remaining: 1}
	fs.MarkStarted(float64(q.grants))
	t.cs.Flows = append(t.cs.Flows, fs)
	t.cs.RemainingFlows++
	if t.cs.Phase == sim.PhaseWaiting {
		t.cs.Phase = sim.PhaseActive
		t.cs.Started = float64(q.grants)
		q.policy.OnCoflowStart(t.cs)
	}
	q.seq++
	w := &waiter{t: t, fs: fs, seq: q.seq, ready: make(chan struct{})}
	t.waiting++
	q.waiting = append(q.waiting, w)
	q.added = append(q.added, fs)
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
		if w.ok {
			// Lost the race: the grant landed while the context died. Give the
			// slot back so it isn't leaked, then report the cancellation.
			q.granted--
			q.dispatchLocked()
			q.mu.Unlock()
			return nil, context.Cause(ctx)
		}
		q.abandonLocked(w)
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

// abandonLocked removes a still-waiting waiter (context cancellation) from
// every structure the policy might see.
func (q *Queue) abandonLocked(w *waiter) {
	for i, x := range q.waiting {
		if x == w {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			break
		}
	}
	for i, f := range q.added {
		if f == w.fs {
			q.added = append(q.added[:i], q.added[i+1:]...)
			break
		}
	}
	q.detachLocked(w)
	w.t.waiting--
}

// detachLocked retires a waiter's flow from its tenant coflow.
func (q *Queue) detachLocked(w *waiter) {
	w.fs.Done = true
	cs := w.t.cs
	for i, f := range cs.Flows {
		if f == w.fs {
			cs.Flows = append(cs.Flows[:i], cs.Flows[i+1:]...)
			break
		}
	}
	cs.RemainingFlows--
}

// dispatchLocked grants slots while any are free: it runs the policy over the
// full waiting set per the sim.Scheduler contract (flows, added, dirty), then
// grants the waiter with the best (queue, seq) and credits the tenant's
// normalized service. Called with the lock held.
func (q *Queue) dispatchLocked() {
	for q.granted < q.cfg.Slots && len(q.waiting) > 0 && !q.closed {
		flows := make([]*sim.FlowState, len(q.waiting))
		for i, w := range q.waiting {
			flows[i] = w.fs
		}
		q.dirty = q.policy.AssignQueues(float64(q.grants), flows, q.added, q.dirty[:0])
		q.added = q.added[:0]

		best := q.waiting[0]
		for _, w := range q.waiting[1:] {
			if w.fs.Queue() < best.fs.Queue() ||
				(w.fs.Queue() == best.fs.Queue() && w.seq < best.seq) {
				best = w
			}
		}
		q.abandonStructures(best)
		best.ok = true
		q.granted++
		q.grants++
		best.t.grants++
		best.t.cs.BytesSent += 1 / best.t.weight
		if q.cfg.OnGrant != nil {
			q.cfg.OnGrant(best.t.id)
		}
		close(best.ready)
	}
}

// abandonStructures removes a granted waiter from the waiting structures
// (same bookkeeping as abandonment, minus the error).
func (q *Queue) abandonStructures(w *waiter) {
	for i, x := range q.waiting {
		if x == w {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			break
		}
	}
	q.detachLocked(w)
	w.t.waiting--
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
	for _, w := range q.waiting {
		w.err = ErrClosed
		q.detachLocked(w)
		w.t.waiting--
		close(w.ready)
	}
	q.waiting = nil
	q.added = nil
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
	Policy   string        `json:"policy"`
	Tenants  []TenantStats `json:"tenants"`
}

// Snapshot returns the queue's current accounting, tenants sorted by ID.
func (q *Queue) Snapshot() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{
		Waiting:  len(q.waiting),
		Granted:  q.granted,
		Capacity: q.cfg.Capacity,
		Slots:    q.cfg.Slots,
		Grants:   q.grants,
		Policy:   q.policy.Name(),
	}
	ids := make([]string, 0, len(q.tenants))
	for id := range q.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := q.tenants[id]
		s.Tenants = append(s.Tenants, TenantStats{
			ID: id, Weight: t.weight, Waiting: t.waiting,
			Grants: t.grants, Service: t.cs.BytesSent,
		})
	}
	return s
}
