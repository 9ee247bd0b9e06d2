package netmod

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gurita/internal/topo"
)

// Slot-lifecycle tests: a link holds a dense slot exactly while a registered
// flow crosses it, returned slots are handed out again, and none of that
// reuse may change a rate — every solve is compared exactly against a batch
// Allocate over snapshot copies.

// checkSlots verifies the slot maps against the registered flows: every
// crossed link holds a slot whose crossing count matches, every other link
// holds none, the used and free slots together are exactly the slots handed
// out since the last Reset, and the flows' runs and the free runs tile the
// slot arena without overlap.
func checkSlots(t *testing.T, a *Allocator, flows []*FlowDemand) {
	t.Helper()
	crossings := map[topo.LinkID]int32{}
	owner := make([]int, len(a.slotArena)) // 0 free-list gap, 1 flow run, 2 free run
	claim := func(off int32, n, by int) {
		for i := int(off); i < int(off)+n; i++ {
			if owner[i] != 0 {
				t.Fatalf("arena entry %d claimed twice", i)
			}
			owner[i] = by
		}
	}
	for _, f := range flows {
		claim(f.slotOff, len(f.Path), 1)
		for i, l := range f.Path {
			if s := a.slots(f)[i]; a.slotOf[l] != s || a.slotLink[s] != l {
				t.Fatalf("link %d: flow slot %d, slotOf %d", l, s, a.slotOf[l])
			}
			crossings[l]++
		}
	}
	for n, offs := range a.freeRuns {
		for _, off := range offs {
			claim(off, n, 2)
		}
	}
	for i, o := range owner {
		if o == 0 {
			t.Fatalf("arena entry %d belongs to no run", i)
		}
	}
	for l, s := range a.slotOf {
		n := crossings[topo.LinkID(l)]
		switch {
		case n == 0 && s >= 0:
			t.Fatalf("link %d holds slot %d with no registered flow", l, s)
		case n > 0 && a.linkRef[s] != n:
			t.Fatalf("link %d (slot %d): linkRef %d, want %d", l, s, a.linkRef[s], n)
		}
	}
	if len(a.used) != len(crossings) {
		t.Fatalf("%d used slots for %d crossed links", len(a.used), len(crossings))
	}
	if got := len(a.used) + len(a.freeSlots); got != len(a.slotLink) {
		t.Fatalf("%d used + %d free slots, %d handed out", len(a.used), len(a.freeSlots), len(a.slotLink))
	}
	for i, s := range a.used {
		if a.usedIdx[s] != int32(i) {
			t.Fatalf("slot %d at used[%d] records position %d", s, i, a.usedIdx[s])
		}
	}
}

// checkAgainstBatch reallocates a and compares every registered flow's rate
// exactly against ref's batch solve of snapshot copies.
func checkAgainstBatch(t *testing.T, a, ref *Allocator, flows []*FlowDemand) {
	t.Helper()
	a.Reallocate()
	snaps := make([]FlowDemand, len(flows))
	ptrs := make([]*FlowDemand, len(flows))
	for i, f := range flows {
		snaps[i] = f.Snapshot()
		ptrs[i] = &snaps[i]
	}
	ref.Allocate(ptrs)
	for i, f := range flows {
		if f.Rate != snaps[i].Rate {
			t.Fatalf("flow %d (queue %d): incremental rate %v != batch rate %v", i, f.Queue, f.Rate, snaps[i].Rate)
		}
	}
	checkSlots(t, a, flows)
}

// TestSlotRecycling walks the slot lifecycle — register, unregister, reuse
// of returned slots, re-registration of the same demands over new paths,
// Reset — under both allocation modes on two fabric sizes.
func TestSlotRecycling(t *testing.T) {
	for _, k := range []int{4, 8} {
		tp, err := topo.NewFatTree(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeSPQ, ModeWRR} {
			t.Run(fmt.Sprintf("fattree%d/%v", k, mode), func(t *testing.T) {
				a := newAlloc(t, tp, 4, mode)
				ref := newAlloc(t, tp, 4, mode)
				rng := rand.New(rand.NewSource(int64(k)))
				newFlow := func() *FlowDemand {
					n := tp.NumServers()
					src, dst := topo.ServerID(rng.Intn(n)), topo.ServerID(rng.Intn(n))
					f := &FlowDemand{Path: tp.Path(src, dst, rng.Uint64()), Queue: rng.Intn(4)}
					if rng.Intn(3) == 0 {
						f.MaxRate = tp.LinkCapacity(0) * (0.05 + rng.Float64())
					}
					return f
				}

				var live []*FlowDemand
				for i := 0; i < 6*k; i++ {
					f := newFlow()
					a.Register(f)
					live = append(live, f)
				}
				checkAgainstBatch(t, a, ref, live)
				peak := len(a.linkRef)

				// Retire half the flows: links they alone crossed return
				// their slots.
				var retired []*FlowDemand
				for len(retired) < 3*k {
					i := rng.Intn(len(live))
					a.Unregister(live[i])
					retired = append(retired, live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				checkAgainstBatch(t, a, ref, live)
				if len(a.freeSlots) == 0 {
					t.Fatal("retiring half the flows returned no slot")
				}

				// Re-register the retired demands over fresh paths: they
				// reuse both the returned slots and the returned arena runs.
				for _, f := range retired {
					f.Path = newFlow().Path
					a.Register(f)
					live = append(live, f)
				}
				checkAgainstBatch(t, a, ref, live)
				// Returned slots are handed out before new ones, so the
				// per-slot arrays span the peak number of links in use.
				if want := max(peak, len(a.used)); len(a.linkRef) != want {
					t.Fatalf("per-slot arrays span %d slots, want the peak in use %d", len(a.linkRef), want)
				}

				// Reset returns every slot and run; re-registering starts over.
				a.Reset()
				checkSlots(t, a, nil)
				if len(a.slotLink) != 0 || len(a.slotArena) != 0 {
					t.Fatalf("Reset left %d slots and %d arena entries handed out", len(a.slotLink), len(a.slotArena))
				}
				live = live[:0]
				for i := 0; i < 4*k; i++ {
					f := newFlow()
					if i%2 == 0 {
						f = retired[i/2]
					}
					a.Register(f)
					live = append(live, f)
				}
				checkAgainstBatch(t, a, ref, live)
			})
		}
	}
}

// TestReregisterAllocatesNothing pins the steady state: once the arena holds
// a run of a path's length, re-registering allocates nothing. It runs under
// both modes, so the water-fill kernel (waterfill, fillTier, freeze) and
// WRR's spill phase (fillSpill) are each held to 0 allocs/op.
func TestReregisterAllocatesNothing(t *testing.T) {
	tp, err := topo.NewFatTree(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		t.Run(mode.String(), func(t *testing.T) {
			a := newAlloc(t, tp, 4, mode)
			f := &FlowDemand{Path: tp.Path(0, 15, 3)}
			g := &FlowDemand{Path: tp.Path(1, 14, 5)}
			a.Register(g)
			a.Register(f)
			a.Reallocate()
			allocs := testing.AllocsPerRun(100, func() {
				a.Unregister(f)
				a.Register(f)
				a.Reallocate()
			})
			if allocs != 0 {
				t.Fatalf("unregister/register/reallocate allocated %v times per run, want 0", allocs)
			}
		})
	}
}

// TestOverrideOnUnusedLink pins the behaviour capacityChanged relies on: an
// override set while no registered flow crosses a link — never used, or
// released by its last flow — holds no slot, and the Register that next
// crosses the link seeds its slot from the override.
func TestOverrideOnUnusedLink(t *testing.T) {
	tp := overrideTopo(t)
	up := tp.ServerUplink(0)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-6*want }
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		a := newAlloc(t, tp, 4, mode)
		other := &FlowDemand{Path: tp.Path(2, 3, 0), Queue: 0}
		a.Register(other)
		a.Reallocate()

		// A link no flow has crossed yet.
		a.SetLinkCapacity(up, 2.5e8)
		if a.Dirty() {
			t.Fatalf("%v: an override on an unused link dirtied the allocator", mode)
		}
		f := &FlowDemand{Path: tp.Path(0, 1, 0), Queue: 1}
		a.Register(f)
		ref := newAlloc(t, tp, 4, mode)
		ref.SetLinkCapacity(up, 2.5e8)
		checkAgainstBatch(t, a, ref, []*FlowDemand{other, f})
		if !near(f.Rate, 2.5e8) {
			t.Fatalf("%v: rate %v, want the override 2.5e8", mode, f.Rate)
		}

		// A link released by its last flow, overridden, then crossed again.
		a.Unregister(f)
		a.Reallocate()
		if s := a.slotOf[up]; s >= 0 {
			t.Fatalf("%v: link kept slot %d after its last flow left", mode, s)
		}
		a.SetLinkCapacity(up, 1e8)
		g := &FlowDemand{Path: tp.Path(0, 2, 0), Queue: 0}
		a.Register(f)
		a.Register(g)
		ref.SetLinkCapacity(up, 1e8)
		checkAgainstBatch(t, a, ref, []*FlowDemand{other, f, g})
		if !near(f.Rate+g.Rate, 1e8) {
			t.Fatalf("%v: flows over the overridden uplink got %v, want its 1e8", mode, f.Rate+g.Rate)
		}

		// An override cleared while the link is unused leaves no trace.
		a.Unregister(f)
		a.Unregister(g)
		a.ClearLinkCapacity(up)
		a.Register(f)
		ref.ClearLinkCapacity(up)
		checkAgainstBatch(t, a, ref, []*FlowDemand{other, f})
		if !near(f.Rate, 1e9) {
			t.Fatalf("%v: rate %v after clearing, want the topology's 1e9", mode, f.Rate)
		}
	}
}
