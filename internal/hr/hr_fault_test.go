package hr

import (
	"testing"

	"gurita/internal/faults"
	"gurita/internal/sim"
)

// Control-plane fault tests: dropped rounds consume their slot but keep the
// snapshot, delays suspend rounds without consuming slots, and stale hosts
// keep serving their previous-round observation while the rest of the fabric
// refreshes.

func TestDropRoundsKeepsSnapshot(t *testing.T) {
	a := New(1.0)
	cs := mkCoflowState(t, a, 1, 100)
	a.Refresh(0, []*sim.CoflowState{cs})

	a.OnControlFault(0.5, faults.Event{Kind: faults.CtrlDropRounds, Count: 1})
	cs.BytesSent = 900

	// The due round at t=1 is dropped: its slot is consumed but readers keep
	// the t=0 snapshot.
	if a.Refresh(1.0, []*sim.CoflowState{cs}) {
		t.Fatal("dropped round should report not-refreshed")
	}
	obs, _ := a.Coflow(cs)
	if obs.Bytes != 100 {
		t.Fatalf("Bytes = %v, want stale 100 after dropped round", obs.Bytes)
	}

	// The slot was consumed: the next round is a full delta away...
	if a.Refresh(1.5, []*sim.CoflowState{cs}) {
		t.Fatal("round before the next delta should not run")
	}
	// ...and that round then refreshes normally.
	if !a.Refresh(2.0, []*sim.CoflowState{cs}) {
		t.Fatal("round after the dropped slot should run")
	}
	obs, _ = a.Coflow(cs)
	if obs.Bytes != 900 {
		t.Fatalf("Bytes = %v, want 900 after recovery round", obs.Bytes)
	}
}

func TestDelaySuspendsWithoutConsumingSlot(t *testing.T) {
	a := New(1.0)
	cs := mkCoflowState(t, a, 1, 100)
	a.Refresh(0, []*sim.CoflowState{cs})

	a.OnControlFault(0.9, faults.Event{Kind: faults.CtrlDelay, Duration: 1.5})
	cs.BytesSent = 700

	// Rounds due during the suspension do not run and consume nothing.
	if a.Refresh(1.0, []*sim.CoflowState{cs}) || a.Refresh(2.0, []*sim.CoflowState{cs}) {
		t.Fatal("round during control-plane delay should not run")
	}
	obs, _ := a.Coflow(cs)
	if obs.Bytes != 100 {
		t.Fatalf("Bytes = %v, want pre-fault 100 during suspension", obs.Bytes)
	}

	// First round at/after the deadline (t=2.4) runs normally.
	if !a.Refresh(2.5, []*sim.CoflowState{cs}) {
		t.Fatal("first round after the delay deadline should run")
	}
	obs, _ = a.Coflow(cs)
	if obs.Bytes != 700 {
		t.Fatalf("Bytes = %v, want 700 after suspension lifted", obs.Bytes)
	}
}

func TestStaleHostServesPreviousRound(t *testing.T) {
	a := New(1.0)
	// Two coflows under two jobs with head receivers on hosts 1 and 5.
	all := activate(a, mkJob(t, 1, 1, 1), mkJob(t, 2, 1, 5))
	c1, c2 := all[0], all[1]
	c1.BytesSent, c1.Job.BytesSent = 100, 100
	c2.BytesSent, c2.Job.BytesSent = 200, 200
	a.Refresh(0, all)

	// Host 1 (c1's head receiver) goes stale until t=3.
	a.OnControlFault(0.5, faults.Event{Kind: faults.CtrlStaleHost, Host: 1, Duration: 2.5})
	c1.BytesSent = 1111
	c2.BytesSent = 2222

	if !a.Refresh(1.0, all) {
		t.Fatal("round should run; only host 1's reports are lost")
	}
	o1, _ := a.Coflow(c1)
	o2, _ := a.Coflow(c2)
	if o1.Bytes != 100 {
		t.Fatalf("stale coflow Bytes = %v, want previous-round 100", o1.Bytes)
	}
	if o2.Bytes != 2222 {
		t.Fatalf("healthy coflow Bytes = %v, want fresh 2222", o2.Bytes)
	}
	j1, ok := a.Job(c1.Job)
	if !ok || j1.Bytes != 100 {
		t.Fatalf("stale job obs = %+v ok=%v, want previous-round Bytes 100", j1, ok)
	}

	// After the staleness window the host reports again.
	c1.BytesSent = 1500
	if !a.Refresh(3.5, all) {
		t.Fatal("round after staleness expiry should run")
	}
	o1, _ = a.Coflow(c1)
	if o1.Bytes != 1500 {
		t.Fatalf("recovered coflow Bytes = %v, want 1500", o1.Bytes)
	}
}

func TestStaleHostWithNoPriorRound(t *testing.T) {
	// A coflow whose head receiver was stale from the start has never
	// reported: readers must see it as unknown, not as zero.
	a := New(1.0)
	cs := mkCoflowStateAt(t, a, 1, 100, 1)
	a.OnControlFault(0, faults.Event{Kind: faults.CtrlStaleHost, Host: 1, Duration: 10})
	a.Refresh(0.5, []*sim.CoflowState{cs})
	if _, ok := a.Coflow(cs); ok {
		t.Fatal("never-reported coflow should stay unknown while its host is stale")
	}
}

func TestNonControlFaultIgnored(t *testing.T) {
	a := New(1.0)
	cs := mkCoflowState(t, a, 1, 100)
	a.Refresh(0, []*sim.CoflowState{cs})
	a.OnControlFault(0.5, faults.Event{Kind: faults.LinkDown, Link: 3})
	cs.BytesSent = 400
	if !a.Refresh(1.0, []*sim.CoflowState{cs}) {
		t.Fatal("data-plane fault kinds must not perturb the aggregator")
	}
	obs, _ := a.Coflow(cs)
	if obs.Bytes != 400 {
		t.Fatalf("Bytes = %v, want 400", obs.Bytes)
	}
}
