package netmod

import (
	"math"
	"math/rand"
	"testing"

	"gurita/internal/topo"
)

func bigSwitch(t *testing.T, n int) *topo.Topology {
	t.Helper()
	bs, err := topo.NewBigSwitch(n, 100) // capacity 100 B/s for easy math
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func newAlloc(t *testing.T, tp *topo.Topology, queues int, mode Mode, opts ...Option) *Allocator {
	t.Helper()
	a, err := NewAllocator(tp, queues, mode, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func flow(tp *topo.Topology, src, dst topo.ServerID, queue int, maxRate float64) *FlowDemand {
	return &FlowDemand{
		Path:    tp.Path(src, dst, topo.ECMPHash(src, dst, uint64(src)<<16|uint64(dst))),
		Queue:   queue,
		MaxRate: maxRate,
	}
}

func TestNewAllocatorValidation(t *testing.T) {
	tp := bigSwitch(t, 4)
	if _, err := NewAllocator(tp, 0, ModeSPQ); err == nil {
		t.Error("0 queues should fail")
	}
	if _, err := NewAllocator(tp, 4, Mode(0)); err == nil {
		t.Error("invalid mode should fail")
	}
	if _, err := NewAllocator(tp, 4, ModeSPQ, WithUtilization(1.5)); err == nil {
		t.Error("eta >= 1 should fail")
	}
	if _, err := NewAllocator(tp, 4, ModeSPQ, WithUtilization(0.5)); err != nil {
		t.Errorf("valid config failed: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeSPQ.String() != "spq" || ModeWRR.String() != "wrr" || Mode(9).String() == "" {
		t.Error("mode stringer wrong")
	}
}

// TestSingleFlowGetsLineRate: one flow alone receives full capacity.
func TestSingleFlowGetsLineRate(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 4, ModeSPQ)
	f := flow(tp, 0, 1, 0, 0)
	a.Allocate([]*FlowDemand{f})
	if math.Abs(f.Rate-100) > 1e-6 {
		t.Fatalf("Rate = %v, want 100", f.Rate)
	}
}

// TestFairShareSameQueue: n flows from the same sender share its uplink
// equally (per-flow fair sharing, the PFS baseline's behaviour).
func TestFairShareSameQueue(t *testing.T) {
	tp := bigSwitch(t, 8)
	a := newAlloc(t, tp, 4, ModeSPQ)
	var fl []*FlowDemand
	for i := 1; i <= 4; i++ {
		fl = append(fl, flow(tp, 0, topo.ServerID(i), 0, 0))
	}
	a.Allocate(fl)
	for i, f := range fl {
		if math.Abs(f.Rate-25) > 1e-6 {
			t.Fatalf("flow %d rate = %v, want 25", i, f.Rate)
		}
	}
}

// TestSPQStrictPriority: with SPQ, a lower tier gets nothing while a higher
// tier saturates the shared link.
func TestSPQStrictPriority(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 4, ModeSPQ)
	hi := flow(tp, 0, 1, 0, 0)
	lo := flow(tp, 0, 2, 3, 0) // shares the sender uplink
	a.Allocate([]*FlowDemand{hi, lo})
	if math.Abs(hi.Rate-100) > 1e-6 {
		t.Fatalf("high-priority rate = %v, want 100", hi.Rate)
	}
	if lo.Rate > 1e-6 {
		t.Fatalf("low-priority rate = %v, want 0 (starved under SPQ)", lo.Rate)
	}
}

// TestSPQUnusedPriorityFallsThrough: if the high tier is capped, the low
// tier picks up the remainder (work conservation across tiers).
func TestSPQUnusedPriorityFallsThrough(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 4, ModeSPQ)
	hi := flow(tp, 0, 1, 0, 30)
	lo := flow(tp, 0, 2, 3, 0)
	a.Allocate([]*FlowDemand{hi, lo})
	if math.Abs(hi.Rate-30) > 1e-6 {
		t.Fatalf("capped high rate = %v, want 30", hi.Rate)
	}
	if math.Abs(lo.Rate-70) > 1e-6 {
		t.Fatalf("low rate = %v, want 70", lo.Rate)
	}
}

// TestWRRNoStarvation: under WRR the low tier keeps a positive share of a
// contended link — the paper's starvation mitigation.
func TestWRRNoStarvation(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 4, ModeWRR)
	hi := flow(tp, 0, 1, 0, 0)
	lo := flow(tp, 0, 2, 3, 0)
	a.Allocate([]*FlowDemand{hi, lo})
	if lo.Rate <= 0 {
		t.Fatalf("low-priority rate = %v, want > 0 under WRR", lo.Rate)
	}
	if hi.Rate <= lo.Rate {
		t.Fatalf("priority inverted: hi %v <= lo %v", hi.Rate, lo.Rate)
	}
	if got := hi.Rate + lo.Rate; math.Abs(got-100) > 1e-6 {
		t.Fatalf("work conservation violated: total %v, want 100", got)
	}
}

// TestWRRSpillover: when the high tier cannot use its guarantee, the low
// tier receives the leftovers.
func TestWRRSpillover(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 4, ModeWRR)
	hi := flow(tp, 0, 1, 0, 10)
	lo := flow(tp, 0, 2, 3, 0)
	a.Allocate([]*FlowDemand{hi, lo})
	if math.Abs(hi.Rate-10) > 1e-6 {
		t.Fatalf("hi rate = %v, want 10", hi.Rate)
	}
	if math.Abs(lo.Rate-90) > 1e-6 {
		t.Fatalf("lo rate = %v, want 90 (spillover)", lo.Rate)
	}
}

// TestMaxRateCap: per-flow caps are respected and surplus goes to others.
func TestMaxRateCap(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 1, ModeSPQ)
	f1 := flow(tp, 0, 1, 0, 20)
	f2 := flow(tp, 0, 2, 0, 0)
	a.Allocate([]*FlowDemand{f1, f2})
	if math.Abs(f1.Rate-20) > 1e-6 || math.Abs(f2.Rate-80) > 1e-6 {
		t.Fatalf("rates = %v, %v; want 20, 80", f1.Rate, f2.Rate)
	}
}

// TestReceiverBottleneck: two senders into one receiver split the receiver
// downlink.
func TestReceiverBottleneck(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 1, ModeSPQ)
	f1 := flow(tp, 0, 3, 0, 0)
	f2 := flow(tp, 1, 3, 0, 0)
	a.Allocate([]*FlowDemand{f1, f2})
	if math.Abs(f1.Rate-50) > 1e-6 || math.Abs(f2.Rate-50) > 1e-6 {
		t.Fatalf("rates = %v, %v; want 50, 50", f1.Rate, f2.Rate)
	}
}

// TestMaxMinAsymmetric is the classic parking-lot: flow A crosses both
// contended links, flows B and C each cross one. Max-min gives A its best
// bottleneck share and lets B, C take the rest.
func TestMaxMinAsymmetric(t *testing.T) {
	tp := bigSwitch(t, 6)
	a := newAlloc(t, tp, 1, ModeSPQ)
	// A: 0 -> 1. B: 0 -> 2 (shares A's uplink). C: 3 -> 1 (shares A's downlink).
	fa := flow(tp, 0, 1, 0, 0)
	fb := flow(tp, 0, 2, 0, 0)
	fc := flow(tp, 3, 1, 0, 0)
	a.Allocate([]*FlowDemand{fa, fb, fc})
	if math.Abs(fa.Rate-50) > 1e-6 {
		t.Fatalf("A rate = %v, want 50", fa.Rate)
	}
	if math.Abs(fb.Rate-50) > 1e-6 || math.Abs(fc.Rate-50) > 1e-6 {
		t.Fatalf("B, C rates = %v, %v; want 50, 50", fb.Rate, fc.Rate)
	}
}

// TestLocalFlowUnconstrained: an empty path (same-host transfer) gets its
// cap, or link capacity when uncapped, and consumes no fabric bandwidth.
func TestLocalFlowUnconstrained(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 1, ModeSPQ)
	local := &FlowDemand{Path: nil, Queue: 0, MaxRate: 42}
	other := flow(tp, 0, 1, 0, 0)
	a.Allocate([]*FlowDemand{local, other})
	if local.Rate != 42 {
		t.Fatalf("local rate = %v, want 42", local.Rate)
	}
	if math.Abs(other.Rate-100) > 1e-6 {
		t.Fatalf("other rate = %v, want 100", other.Rate)
	}
	uncapped := &FlowDemand{}
	a.Allocate([]*FlowDemand{uncapped})
	if uncapped.Rate != 100 {
		t.Fatalf("uncapped local rate = %v, want link capacity 100", uncapped.Rate)
	}
}

// TestQueueClamping: out-of-range queue indices are clamped, not dropped.
func TestQueueClamping(t *testing.T) {
	tp := bigSwitch(t, 4)
	a := newAlloc(t, tp, 4, ModeSPQ)
	f1 := flow(tp, 0, 1, -5, 0)
	f2 := flow(tp, 2, 3, 99, 0)
	a.Allocate([]*FlowDemand{f1, f2})
	if f1.Rate != 100 || f2.Rate != 100 {
		t.Fatalf("rates = %v, %v; want 100, 100", f1.Rate, f2.Rate)
	}
}

// TestAllocatorReuse: repeated Allocate calls on changing flow sets give
// the same result as a fresh allocator (scratch state fully reset).
func TestAllocatorReuse(t *testing.T) {
	tp := bigSwitch(t, 8)
	a := newAlloc(t, tp, 4, ModeSPQ)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		var fl []*FlowDemand
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			fl = append(fl, flow(tp,
				topo.ServerID(rng.Intn(8)), topo.ServerID(rng.Intn(8)),
				rng.Intn(4), 0))
		}
		a.Allocate(fl)
		fresh := newAlloc(t, tp, 4, ModeSPQ)
		want := make([]float64, len(fl))
		for i, f := range fl {
			want[i] = f.Rate
		}
		fresh.Allocate(fl)
		for i, f := range fl {
			if math.Abs(f.Rate-want[i]) > 1e-6 {
				t.Fatalf("round %d flow %d: reused %v vs fresh %v", round, i, want[i], f.Rate)
			}
		}
	}
}

// checkConservation verifies per-link conservation: summed rates never
// exceed capacity (within epsilon).
func checkConservation(t *testing.T, tp *topo.Topology, fl []*FlowDemand) {
	t.Helper()
	usage := make(map[topo.LinkID]float64)
	for _, f := range fl {
		for _, l := range f.Path {
			usage[l] += f.Rate
		}
	}
	for l, u := range usage {
		if u > tp.LinkCapacity(l)+1e-6*tp.LinkCapacity(l)+1e-6 {
			t.Fatalf("link %d over capacity: %v > %v", l, u, tp.LinkCapacity(l))
		}
	}
}

// checkWorkConserving: if a flow is unsatisfied (below its cap or uncapped
// and finite), some link on its path must be (nearly) saturated.
func checkWorkConserving(t *testing.T, tp *topo.Topology, fl []*FlowDemand) {
	t.Helper()
	usage := make(map[topo.LinkID]float64)
	for _, f := range fl {
		for _, l := range f.Path {
			usage[l] += f.Rate
		}
	}
	for i, f := range fl {
		if len(f.Path) == 0 {
			continue
		}
		if f.MaxRate > 0 && f.Rate >= f.MaxRate-1e-6 {
			continue // satisfied
		}
		saturated := false
		for _, l := range f.Path {
			if usage[l] >= tp.LinkCapacity(l)-1e-3 {
				saturated = true
				break
			}
		}
		if !saturated {
			t.Fatalf("flow %d unsatisfied (rate %v, cap %v) with no saturated link on path", i, f.Rate, f.MaxRate)
		}
	}
}

// TestPropertiesRandomFatTree: conservation and work conservation hold on
// random flow sets over a FatTree, in both modes.
func TestPropertiesRandomFatTree(t *testing.T) {
	ft, err := topo.NewFatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		a := newAlloc(t, ft, 4, mode)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 100; trial++ {
			var fl []*FlowDemand
			n := 1 + rng.Intn(30)
			for i := 0; i < n; i++ {
				src := topo.ServerID(rng.Intn(ft.NumServers()))
				dst := topo.ServerID(rng.Intn(ft.NumServers()))
				var maxRate float64
				if rng.Intn(3) == 0 {
					maxRate = 10 + 90*rng.Float64()
				}
				fl = append(fl, &FlowDemand{
					Path:    ft.Path(src, dst, rng.Uint64()),
					Queue:   rng.Intn(4),
					MaxRate: maxRate,
				})
			}
			a.Allocate(fl)
			checkConservation(t, ft, fl)
			checkWorkConserving(t, ft, fl)
			for i, f := range fl {
				if f.Rate < 0 || math.IsNaN(f.Rate) || math.IsInf(f.Rate, 0) {
					t.Fatalf("mode %v flow %d: bad rate %v", mode, i, f.Rate)
				}
			}
		}
	}
}

// TestMaxMinProperty: within one tier, no flow can be raised without
// lowering an equal-or-smaller flow: every flow is either capped or crosses
// a saturated link where it has a maximal rate among that link's flows.
func TestMaxMinProperty(t *testing.T) {
	ft, err := topo.NewFatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	a := newAlloc(t, ft, 1, ModeSPQ)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		var fl []*FlowDemand
		for i := 0; i < 20; i++ {
			src := topo.ServerID(rng.Intn(ft.NumServers()))
			dst := topo.ServerID(rng.Intn(ft.NumServers()))
			fl = append(fl, &FlowDemand{Path: ft.Path(src, dst, rng.Uint64())})
		}
		a.Allocate(fl)
		usage := make(map[topo.LinkID]float64)
		maxAt := make(map[topo.LinkID]float64)
		for _, f := range fl {
			for _, l := range f.Path {
				usage[l] += f.Rate
				if f.Rate > maxAt[l] {
					maxAt[l] = f.Rate
				}
			}
		}
		for i, f := range fl {
			if len(f.Path) == 0 {
				continue
			}
			ok := false
			for _, l := range f.Path {
				if usage[l] >= 100-1e-3 && f.Rate >= maxAt[l]-1e-6 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d flow %d (rate %v) violates max-min: no saturated bottleneck where it is maximal", trial, i, f.Rate)
			}
		}
	}
}

func BenchmarkAllocateSPQ(b *testing.B) {
	ft, _ := topo.NewFatTree(8, 1.25e9)
	a, _ := NewAllocator(ft, 4, ModeSPQ)
	rng := rand.New(rand.NewSource(5))
	var fl []*FlowDemand
	for i := 0; i < 500; i++ {
		src := topo.ServerID(rng.Intn(ft.NumServers()))
		dst := topo.ServerID(rng.Intn(ft.NumServers()))
		fl = append(fl, &FlowDemand{Path: ft.Path(src, dst, rng.Uint64()), Queue: rng.Intn(4)})
	}
	// The first Allocate sizes the per-slot arrays, the slot arena and the
	// link flow lists; keep that growth out of the timed loop.
	a.Allocate(fl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(fl)
	}
}

func BenchmarkAllocateWRR(b *testing.B) {
	ft, _ := topo.NewFatTree(8, 1.25e9)
	a, _ := NewAllocator(ft, 4, ModeWRR)
	rng := rand.New(rand.NewSource(5))
	var fl []*FlowDemand
	for i := 0; i < 500; i++ {
		src := topo.ServerID(rng.Intn(ft.NumServers()))
		dst := topo.ServerID(rng.Intn(ft.NumServers()))
		fl = append(fl, &FlowDemand{Path: ft.Path(src, dst, rng.Uint64()), Queue: rng.Intn(4)})
	}
	// The first Allocate sizes the per-slot arrays, the slot arena and the
	// link flow lists; keep that growth out of the timed loop.
	a.Allocate(fl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Allocate(fl)
	}
}

// The delta benchmarks measure what the simulator actually pays per event:
// one flow changes queue among 500 standing registrations, and Reallocate
// re-solves only the dirty tier suffix (SPQ) or the coupled WRR system.
func BenchmarkReallocateDeltaSPQ(b *testing.B) { benchReallocateDelta(b, ModeSPQ, 8, 500) }
func BenchmarkReallocateDeltaWRR(b *testing.B) { benchReallocateDelta(b, ModeWRR, 8, 500) }

// BenchmarkReallocateDeltaWRRK48 is the same delta at paper scale: the
// 48-pod fabric's 165,888 links with about 800 standing flows, the live-flow
// count of a bursty Fig 7 run. Only here do the links a solve touches spread
// over a fabric far larger than the cache.
func BenchmarkReallocateDeltaWRRK48(b *testing.B) { benchReallocateDelta(b, ModeWRR, 48, 800) }

// BenchmarkReallocateDeltaSPQK48 is its SPQ twin: the same fabric, flows
// and delta, re-solving only the dirty tier suffix.
func BenchmarkReallocateDeltaSPQK48(b *testing.B) { benchReallocateDelta(b, ModeSPQ, 48, 800) }

// BenchmarkReallocateDeltaCappedWRRK8 has the shape of the trace-k8
// workload's allocator load: about 2,000 standing flows on the 8-pod
// fabric, every one capped at the 1.25e9 link rate as the simulator's NIC
// cap does, under arrival and departure churn. Each op retires the oldest
// flow, admits the next one of a 2,500-demand ring and re-solves WRR.
func BenchmarkReallocateDeltaCappedWRRK8(b *testing.B) {
	ft, _ := topo.NewFatTree(8, 1.25e9)
	a, _ := NewAllocator(ft, 4, ModeWRR)
	rng := rand.New(rand.NewSource(5))
	const standing = 2000
	ring := make([]*FlowDemand, standing+500)
	for i := range ring {
		src := topo.ServerID(rng.Intn(ft.NumServers()))
		dst := topo.ServerID(rng.Intn(ft.NumServers()))
		ring[i] = &FlowDemand{Path: ft.Path(src, dst, rng.Uint64()), Queue: rng.Intn(4), MaxRate: 1.25e9}
	}
	for _, f := range ring[:standing] {
		a.Register(f)
	}
	churn := func(i int) {
		a.Unregister(ring[i%len(ring)])
		a.Register(ring[(i+standing)%len(ring)])
	}
	// Two laps of the ring size the slot arena and the tier indexes, and one
	// solve sizes the fill arrays; keep that growth out of the timed loop.
	for i := 0; i < 2*len(ring); i++ {
		churn(i)
	}
	a.Reallocate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
		a.Reallocate()
	}
}

func benchReallocateDelta(b *testing.B, mode Mode, k, flows int) {
	ft, _ := topo.NewFatTree(k, 1.25e9)
	a, _ := NewAllocator(ft, 4, mode)
	rng := rand.New(rand.NewSource(5))
	var fl []*FlowDemand
	for i := 0; i < flows; i++ {
		src := topo.ServerID(rng.Intn(ft.NumServers()))
		dst := topo.ServerID(rng.Intn(ft.NumServers()))
		fl = append(fl, &FlowDemand{Path: ft.Path(src, dst, rng.Uint64()), Queue: rng.Intn(4)})
	}
	for _, f := range fl {
		a.Register(f)
	}
	a.Reallocate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fl[i%len(fl)]
		f.Queue = (f.Queue + 1) % 4
		a.Update(f)
		a.Reallocate()
	}
}
