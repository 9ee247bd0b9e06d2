package netmod

import (
	"fmt"
	"math/rand"
	"testing"

	"gurita/internal/topo"
)

// The delta engine's contract is exact equivalence: after any sequence of
// Register/Unregister/Update deltas, Reallocate must leave every registered
// flow with a Rate bit-identical to what a from-scratch batch Allocate over
// the same flow set produces. These tests drive random churn sequences over
// random topologies and compare against the batch reference after every
// step, in both SPQ and WRR modes.

// churnHarness pairs an incrementally maintained allocator with a batch
// reference over the same topology.
type churnHarness struct {
	t    *testing.T
	tp   *topo.Topology
	inc  *Allocator
	ref  *Allocator
	rng  *rand.Rand
	live []*FlowDemand // flows registered with inc
	refl []*FlowDemand // parallel batch copies, same order
}

func newChurnHarness(t *testing.T, tp *topo.Topology, queues int, mode Mode, seed int64) *churnHarness {
	inc, err := NewAllocator(tp, queues, mode)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewAllocator(tp, queues, mode)
	if err != nil {
		t.Fatal(err)
	}
	return &churnHarness{t: t, tp: tp, inc: inc, ref: ref, rng: rand.New(rand.NewSource(seed))}
}

// randomFlow builds a flow over a random server pair (sometimes host-local)
// with a random queue (sometimes out of range, exercising clamping) and a
// random cap (sometimes uncapped).
func (h *churnHarness) randomFlow() *FlowDemand {
	n := h.tp.NumServers()
	src := topo.ServerID(h.rng.Intn(n))
	dst := topo.ServerID(h.rng.Intn(n))
	var path []topo.LinkID
	if h.rng.Intn(10) > 0 { // 10%: host-local (empty path)
		path = h.tp.Path(src, dst, h.rng.Uint64())
	}
	f := &FlowDemand{
		Path:  path,
		Queue: h.rng.Intn(h.inc.Queues()+2) - 1,
	}
	if h.rng.Intn(4) > 0 {
		f.MaxRate = h.tp.LinkCapacity(0) * (0.05 + h.rng.Float64())
	}
	return f
}

// step applies one random delta to the incremental allocator.
func (h *churnHarness) step() {
	op := h.rng.Intn(10)
	switch {
	case len(h.live) == 0 || op < 4: // add
		f := h.randomFlow()
		h.inc.Register(f)
		h.live = append(h.live, f)
	case op < 6: // remove
		i := h.rng.Intn(len(h.live))
		h.inc.Unregister(h.live[i])
		h.live[i] = h.live[len(h.live)-1]
		h.live = h.live[:len(h.live)-1]
	case op < 8: // requeue
		f := h.live[h.rng.Intn(len(h.live))]
		f.Queue = h.rng.Intn(h.inc.Queues()+2) - 1
		h.inc.Update(f)
	default: // change cap
		f := h.live[h.rng.Intn(len(h.live))]
		f.MaxRate = h.tp.LinkCapacity(0) * (0.05 + h.rng.Float64())
		h.inc.Update(f)
	}
}

// check reallocates incrementally and compares every rate exactly against a
// batch solve of snapshot copies: a demand is registered in one allocator at
// a time, and a plain struct copy would carry the live demand's
// registration bookkeeping into the reference.
func (h *churnHarness) check(stepNo int) {
	h.inc.Reallocate()

	h.refl = h.refl[:0]
	for _, f := range h.live {
		c := f.Snapshot()
		h.refl = append(h.refl, &c)
	}
	h.ref.Allocate(h.refl)
	checkTierIndex(h.t, h.ref)

	for i, f := range h.live {
		if got, want := f.Rate, h.refl[i].Rate; got != want {
			h.t.Fatalf("step %d: flow %d (queue %d, %d links): incremental rate %v != batch rate %v",
				stepNo, i, f.Queue, len(f.Path), got, want)
		}
	}
}

func testTopologies(t *testing.T) map[string]*topo.Topology {
	ft, err := topo.NewFatTree(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topo.NewLeafSpine(4, 2, 6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := topo.NewBigSwitch(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topo.Topology{"fattree4": ft, "leafspine": ls, "bigswitch": bs}
}

// TestIncrementalMatchesBatchUnderChurn is the allocator equivalence
// property test: random flow churn, every rate compared exactly after every
// reallocation.
func TestIncrementalMatchesBatchUnderChurn(t *testing.T) {
	const steps = 400
	for name, tp := range testTopologies(t) {
		for _, mode := range []Mode{ModeSPQ, ModeWRR} {
			for _, queues := range []int{1, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("%s/%v/q%d/seed%d", name, mode, queues, seed), func(t *testing.T) {
						h := newChurnHarness(t, tp, queues, mode, seed)
						for i := 0; i < steps; i++ {
							h.step()
							h.check(i)
						}
					})
				}
			}
		}
	}
}

// TestReallocateSkipsWhenClean verifies the dirty tracking: no deltas means
// no pending work, and deltas that do not change the effective tier or cap
// (requeue to a value clamping to the same tier, cap rewritten with the same
// value) keep the allocator clean.
func TestReallocateSkipsWhenClean(t *testing.T) {
	tp, err := topo.NewBigSwitch(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAllocator(tp, 4, ModeSPQ)
	if err != nil {
		t.Fatal(err)
	}
	f := &FlowDemand{Path: tp.Path(0, 1, 0), Queue: 5, MaxRate: 1e9}
	a.Register(f)
	if !a.Dirty() {
		t.Fatal("Register must mark the allocator dirty")
	}
	a.Reallocate()
	if a.Dirty() {
		t.Fatal("Reallocate must clear the dirty state")
	}
	rate := f.Rate

	f.Queue = 7 // clamps to tier 3, same as 5
	a.Update(f)
	f.MaxRate = 1e9 // unchanged
	a.Update(f)
	if a.Dirty() {
		t.Fatal("no-op updates must not dirty the allocator")
	}
	a.Reallocate()
	if f.Rate != rate {
		t.Fatalf("clean Reallocate changed the rate: %v != %v", f.Rate, rate)
	}

	f.Queue = 1
	a.Update(f)
	if !a.Dirty() {
		t.Fatal("a tier change must dirty the allocator")
	}
}

// TestUnregisterRestoresCapacity checks that retiring flows releases their
// links: a lone remaining flow returns to its full cap after churn.
func TestUnregisterRestoresCapacity(t *testing.T) {
	tp, err := topo.NewBigSwitch(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		a, err := NewAllocator(tp, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		path := tp.Path(0, 1, 0)
		keep := &FlowDemand{Path: path, Queue: 3}
		a.Register(keep)
		var others []*FlowDemand
		for i := 0; i < 5; i++ {
			f := &FlowDemand{Path: path, Queue: 0}
			a.Register(f)
			others = append(others, f)
		}
		a.Reallocate()
		for _, f := range others {
			a.Unregister(f)
		}
		a.Reallocate()
		if want := tp.LinkCapacity(path[0]); keep.Rate != want {
			t.Fatalf("%v: lone flow rate %v, want full capacity %v", mode, keep.Rate, want)
		}
	}
}
