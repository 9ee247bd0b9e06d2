package netmod

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gurita/internal/topo"
)

// The production water-fill must reproduce the reference kernel
// (refkernel_test.go) bit for bit: every flow's Rate and the cumulative
// Stats, after every Reallocate, under any sequence of deltas. The two run
// on separate allocators fed the same deltas, each with its own copy of
// every demand.

// kernelPair drives the production kernel and the reference kernel through
// the same deltas.
type kernelPair struct {
	t   *testing.T
	tp  *topo.Topology
	cur *Allocator
	ref *refKernel
	rng *rand.Rand
	// cf[i] is registered with cur, rf[i] is its twin registered with ref.
	cf, rf []*FlowDemand
}

func newKernelPair(t *testing.T, tp *topo.Topology, queues int, mode Mode, seed int64) *kernelPair {
	cur, err := NewAllocator(tp, queues, mode)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewAllocator(tp, queues, mode)
	if err != nil {
		t.Fatal(err)
	}
	return &kernelPair{t: t, tp: tp, cur: cur, ref: newRefKernel(ref), rng: rand.New(rand.NewSource(seed))}
}

func (p *kernelPair) register(f *FlowDemand) {
	g := f.Snapshot()
	p.cur.Register(f)
	p.ref.Register(&g)
	p.cf = append(p.cf, f)
	p.rf = append(p.rf, &g)
}

func (p *kernelPair) unregister(i int) {
	p.cur.Unregister(p.cf[i])
	p.ref.Unregister(p.rf[i])
	last := len(p.cf) - 1
	p.cf[i], p.rf[i] = p.cf[last], p.rf[last]
	p.cf, p.rf = p.cf[:last], p.rf[:last]
}

// update applies change to flow i's twins and reports it to both kernels.
func (p *kernelPair) update(i int, change func(*FlowDemand)) {
	change(p.cf[i])
	change(p.rf[i])
	p.cur.Update(p.cf[i])
	p.ref.Update(p.rf[i])
}

// randomCap is a cap drawn so that many flows share it exactly: the link
// rate (the simulator's NIC cap), an exact fraction of it, or a random
// value; sometimes uncapped.
func (p *kernelPair) randomCap() float64 {
	c := p.tp.LinkCapacity(0)
	switch p.rng.Intn(5) {
	case 0:
		return 0
	case 1, 2:
		return c
	case 3:
		return c / float64(1+p.rng.Intn(4))
	default:
		return c * (0.05 + p.rng.Float64())
	}
}

func (p *kernelPair) randomFlow() *FlowDemand {
	n := p.tp.NumServers()
	src := topo.ServerID(p.rng.Intn(n))
	dst := topo.ServerID(p.rng.Intn(n))
	var path []topo.LinkID
	if p.rng.Intn(10) > 0 { // 10%: host-local (empty path)
		path = p.tp.Path(src, dst, p.rng.Uint64())
	}
	return &FlowDemand{Path: path, Queue: p.rng.Intn(p.cur.Queues()+2) - 1, MaxRate: p.randomCap()}
}

// step applies one random delta to both kernels.
func (p *kernelPair) step() {
	op := p.rng.Intn(20)
	switch {
	case len(p.cf) == 0 || op < 8:
		p.register(p.randomFlow())
	case op < 12:
		p.unregister(p.rng.Intn(len(p.cf)))
	case op < 15:
		q := p.rng.Intn(p.cur.Queues()+2) - 1
		p.update(p.rng.Intn(len(p.cf)), func(f *FlowDemand) { f.Queue = q })
	case op < 18:
		c := p.randomCap()
		p.update(p.rng.Intn(len(p.cf)), func(f *FlowDemand) { f.MaxRate = c })
	default:
		// Degrade, fail or restore a link some flow crosses, or any link.
		l := topo.LinkID(p.rng.Intn(p.tp.NumLinks()))
		if f := p.cf[p.rng.Intn(len(p.cf))]; len(f.Path) > 0 {
			l = f.Path[p.rng.Intn(len(f.Path))]
		}
		switch c := p.tp.LinkCapacity(l); p.rng.Intn(3) {
		case 0:
			p.cur.ClearLinkCapacity(l)
			p.ref.ClearLinkCapacity(l)
		case 1:
			p.cur.SetLinkCapacity(l, 0)
			p.ref.SetLinkCapacity(l, 0)
		default:
			c *= float64(1+p.rng.Intn(3)) / 4
			p.cur.SetLinkCapacity(l, c)
			p.ref.SetLinkCapacity(l, c)
		}
	}
}

// check reallocates both kernels and compares every rate's bits and the
// stats, then checks the production allocator's tier indexes.
func (p *kernelPair) check(step int) {
	p.t.Helper()
	p.cur.Reallocate()
	p.ref.Reallocate()
	for i, f := range p.cf {
		if got, want := f.Rate, p.rf[i].Rate; math.Float64bits(got) != math.Float64bits(want) {
			p.t.Fatalf("step %d: flow %d (queue %d, %d links, cap %v): rate %v, reference %v",
				step, i, f.Queue, len(f.Path), f.MaxRate, got, want)
		}
	}
	if got, want := p.cur.Stats(), p.ref.Stats(); got != want {
		p.t.Fatalf("step %d: stats %+v, reference %+v", step, got, want)
	}
	checkTierIndex(p.t, p.cur)
}

// checkTierIndex verifies the crossing lists, the slot lists and the
// private-hop records against the registered flows: each slot's list holds
// exactly its crossings, each in its flow's tier segment, naming the flow's
// position in its tier, at the place hopPos records; shared lists exactly
// the slots with two or more crossings, and tier q's slot list exactly the
// shared slots tier q's flows cross; and each flow's chain of group leads
// holds one of its hops on slots with one crossing, whose counts are
// negative, per capacity, privFlows[q] listing exactly tier q's flows
// that have a group.
func checkTierIndex(t *testing.T, a *Allocator) {
	t.Helper()
	want := map[int32]int{}
	for q, fl := range a.byQueue {
		crossed := map[int32]bool{}
		withPriv := 0
		for i, f := range fl {
			if int(f.tierIdx) != i || int(f.tier) != q {
				t.Fatalf("tier %d: flow at %d records tier %d position %d", q, i, f.tier, f.tierIdx)
			}
			priv := map[uint64]int32{}
			mine := map[int32]bool{}
			for h, s := range a.slots(f) {
				mine[s] = true
				p := a.hopPos[int(f.slotOff)+h]
				if lo, hi := a.seg(s, q); p < lo || p >= hi || a.cross[s][p] != int32(i) {
					t.Fatalf("tier %d: flow %d hop %d (slot %d) at %d of segment [%d,%d) holds %d",
						q, i, h, s, p, lo, hi, a.cross[s][p])
				}
				if a.linkRef[s] == 1 {
					priv[math.Float64bits(a.tierRes[0][s])]++
					if a.count[s] >= 0 {
						t.Fatalf("tier %d: flow %d hop %d: private slot %d has count %d", q, i, h, s, a.count[s])
					}
				} else {
					crossed[s] = true
				}
				want[s]++
			}
			leads := map[uint64]bool{}
			for l := f.lead; l >= 0; l = a.nextLead[l] {
				c := math.Float64bits(a.tierRes[0][l])
				if priv[c] == 0 || leads[c] || a.linkRef[l] != 1 || !mine[l] {
					t.Fatalf("tier %d: flow %d: lead slot %d (capacity %v, linkRef %d) is not one per private capacity",
						q, i, l, a.tierRes[0][l], a.linkRef[l])
				}
				leads[c] = true
			}
			if len(leads) != len(priv) {
				t.Fatalf("tier %d: flow %d leads %d private groups, has %d", q, i, len(leads), len(priv))
			}
			if len(priv) > 0 {
				withPriv++
				if k := int(f.privIdx); k >= len(a.privFlows[q]) || a.privFlows[q][k] != int32(i) {
					t.Fatalf("tier %d: flow %d with private hops not at privFlows position %d", q, i, k)
				}
			}
		}
		if len(a.privFlows[q]) != withPriv {
			t.Fatalf("tier %d: %d flows listed with private hops, %d have one", q, len(a.privFlows[q]), withPriv)
		}
		for k, s := range a.tierSlots[q] {
			if a.tierSlotPos[q][s] != int32(k) || !crossed[s] || a.linkRef[s] < 2 {
				t.Fatalf("tier %d: slot %d at %d records %d, crossed %v, linkRef %d",
					q, s, k, a.tierSlotPos[q][s], crossed[s], a.linkRef[s])
			}
		}
		if len(a.tierSlots[q]) != len(crossed) {
			t.Fatalf("tier %d: %d slots listed, %d shared slots crossed", q, len(a.tierSlots[q]), len(crossed))
		}
	}
	for i, s := range a.shared {
		if a.sharedIdx[s] != int32(i) || a.linkRef[s] < 2 {
			t.Fatalf("shared slot %d at %d records %d, linkRef %d", s, i, a.sharedIdx[s], a.linkRef[s])
		}
	}
	shared := 0
	for _, s := range a.used {
		if lo, hi := a.seg(s, a.queues-1); lo > hi || int(hi) != len(a.cross[s]) || len(a.cross[s]) != want[s] {
			t.Fatalf("slot %d: %d crossings, last segment ends at %d, want %d", s, len(a.cross[s]), hi, want[s])
		}
		switch {
		case a.linkRef[s] > 1:
			shared++
		case a.sharedIdx[s] != -1:
			t.Fatalf("private slot %d records shared position %d", s, a.sharedIdx[s])
		}
	}
	if len(a.shared) != shared {
		t.Fatalf("%d slots listed as shared, %d are", len(a.shared), shared)
	}
}

// TestKernelMatchesReference is the kernel oracle property test: random
// Register/Unregister/Update churn with caps and capacity overrides, under
// SPQ and WRR on the 4- and 8-pod fabrics, every rate and the stats
// compared bit for bit after every reallocation.
func TestKernelMatchesReference(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 150
	}
	for _, k := range []int{4, 8} {
		tp, err := topo.NewFatTree(k, 1.25e9)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeSPQ, ModeWRR} {
			for _, queues := range []int{1, 4} {
				for seed := int64(1); seed <= 2; seed++ {
					t.Run(fmt.Sprintf("k%d/%v/q%d/seed%d", k, mode, queues, seed), func(t *testing.T) {
						p := newKernelPair(t, tp, queues, mode, seed)
						for i := 0; i < steps; i++ {
							p.step()
							p.check(i)
						}
					})
				}
			}
		}
	}
}

// TestKernelMatchesReferenceTied covers exact ties: on the 4-pod fabric
// every server sends to every other over the same ECMP choice, so many
// links carry equal counts and equal shares, and caps sit exactly at the
// link rate or at exact fractions of it that equal a link's share. Flows
// then leave and re-enter in symmetric groups.
func TestKernelMatchesReferenceTied(t *testing.T) {
	tp, err := topo.NewFatTree(4, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}
	c := tp.LinkCapacity(0)
	n := tp.NumServers()
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		for _, queues := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/q%d", mode, queues), func(t *testing.T) {
				p := newKernelPair(t, tp, queues, mode, 1)
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if src == dst {
							continue
						}
						f := &FlowDemand{
							Path:    tp.Path(topo.ServerID(src), topo.ServerID(dst), 0),
							Queue:   src % queues,
							MaxRate: []float64{0, c, c / 2, c / float64(n-1)}[dst%4],
						}
						p.register(f)
					}
				}
				p.check(0)
				for round := 1; round <= 8; round++ {
					// Retire every flow into a quarter of the receivers'
					// downlinks (by link ID mod 4), re-cap every third flow
					// to an exact fraction of the link rate, requeue every
					// fifth, then admit a ring of new flows at the link rate.
					for i := len(p.cf) - 1; i >= 0; i-- {
						if int(p.cf[i].Path[len(p.cf[i].Path)-1])%4 == round%4 {
							p.unregister(i)
						}
					}
					p.check(round*10 + 1)
					for i := range p.cf {
						if i%3 == round%3 {
							p.update(i, func(f *FlowDemand) { f.MaxRate = c / float64(2+round%3) })
						}
					}
					p.check(round*10 + 2)
					for i := range p.cf {
						if i%5 == round%5 {
							q := (p.cf[i].Queue + 1) % queues
							p.update(i, func(f *FlowDemand) { f.Queue = q })
						}
					}
					p.check(round*10 + 3)
					for dst := round % 4; dst < n; dst += 4 {
						src := (dst + round) % n
						if src == dst {
							continue
						}
						p.register(&FlowDemand{Path: tp.Path(topo.ServerID(src), topo.ServerID(dst), 0), Queue: round % queues, MaxRate: c})
					}
					p.check(round*10 + 4)
				}
			})
		}
	}
}

// TestKernelMatchesReferenceSparse runs the oracle where most links are
// private (one registered crossing): at most 40 flows on the 16-pod
// fabric's 1,024 servers, plain and with its switch links oversubscribed 3:1
// so one flow's private links start from different capacities. New flows
// often start beside a registered one — on its path, or from its source or
// to its destination — so links flip between private and shared; requeues
// move private links between tiers, and capacity overrides land on a
// flow's own links. Every solve is also compared with a batch Allocate:
// both kernels run the same Register, Unregister and Update, so a fault in
// the private-link index could mislead them alike.
func TestKernelMatchesReferenceSparse(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 150
	}
	plain, err := topo.NewFatTree(16, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}
	oversub, err := topo.NewFatTreeOversub(16, 1.25e9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		// A link flips while a higher tier's flow holds it: g, capped at a
		// quarter of the link rate, leaves the rest to f at tier 3; f
		// leaves, and h joins at tier 2. h's solve starts at tier 2, so it
		// reads the snapshot of a path that was private to g.
		t.Run(fmt.Sprintf("flips/%v", mode), func(t *testing.T) {
			s := newSparseChurn(t, plain, 4, mode, 1)
			c := plain.LinkCapacity(0)
			path := func() []topo.LinkID { return plain.Path(0, 700, 9) }
			s.register(&FlowDemand{Path: path(), Queue: 1, MaxRate: c / 4})
			s.register(&FlowDemand{Path: path(), Queue: 3})
			s.check(0)
			s.unregister(1)
			s.check(1)
			s.register(&FlowDemand{Path: path(), Queue: 2})
			s.check(2)
			if got := s.cf[1].Rate; got != c-c/4 {
				t.Fatalf("flow beside a capped higher tier got %v, want %v", got, c-c/4)
			}
		})
	}
	for _, fabric := range []struct {
		name string
		tp   *topo.Topology
	}{{"k16", plain}, {"k16oversub", oversub}} {
		name, tp := fabric.name, fabric.tp
		for _, mode := range []Mode{ModeSPQ, ModeWRR} {
			for _, queues := range []int{1, 4} {
				for seed := int64(1); seed <= 2; seed++ {
					t.Run(fmt.Sprintf("%s/%v/q%d/seed%d", name, mode, queues, seed), func(t *testing.T) {
						s := newSparseChurn(t, tp, queues, mode, seed)
						for i := 0; i < steps; i++ {
							s.step()
							s.check(i)
						}
					})
				}
			}
		}
	}
}

// sparseChurn drives a kernelPair plus a batch allocator through churn that
// keeps the working set small and often places flows beside each other.
type sparseChurn struct {
	*kernelPair
	batch *Allocator
	// ends records each registered demand's endpoints and ECMP hash, so a
	// new flow can follow its path or share one end.
	ends map[*FlowDemand][3]uint64
}

func newSparseChurn(t *testing.T, tp *topo.Topology, queues int, mode Mode, seed int64) *sparseChurn {
	batch, err := NewAllocator(tp, queues, mode)
	if err != nil {
		t.Fatal(err)
	}
	return &sparseChurn{
		kernelPair: newKernelPair(t, tp, queues, mode, seed),
		batch:      batch,
		ends:       map[*FlowDemand][3]uint64{},
	}
}

// step applies one random delta to both kernels and the batch allocator's
// overrides.
func (s *sparseChurn) step() {
	const maxFlows = 40
	op := s.rng.Intn(20)
	switch {
	case len(s.cf) == 0 || (op < 8 && len(s.cf) < maxFlows):
		s.registerNear()
	case op < 11 || len(s.cf) >= maxFlows:
		i := s.rng.Intn(len(s.cf))
		delete(s.ends, s.cf[i])
		s.unregister(i)
	case op < 15:
		q := s.rng.Intn(s.cur.Queues())
		s.update(s.rng.Intn(len(s.cf)), func(f *FlowDemand) { f.Queue = q })
	case op < 17:
		c := s.randomCap()
		s.update(s.rng.Intn(len(s.cf)), func(f *FlowDemand) { f.MaxRate = c })
	default:
		f := s.cf[s.rng.Intn(len(s.cf))]
		l := f.Path[s.rng.Intn(len(f.Path))]
		c := s.tp.LinkCapacity(l)
		switch s.rng.Intn(4) {
		case 0:
			s.cur.ClearLinkCapacity(l)
			s.ref.ClearLinkCapacity(l)
			s.batch.ClearLinkCapacity(l)
			return
		case 1:
			c = 0
		default:
			c *= float64(1+s.rng.Intn(3)) / 4
		}
		s.cur.SetLinkCapacity(l, c)
		s.ref.SetLinkCapacity(l, c)
		s.batch.SetLinkCapacity(l, c)
	}
}

// registerNear registers a fabric flow: half the time between random
// servers, otherwise beside a registered flow — on its exact path, from its
// source or to its destination.
func (s *sparseChurn) registerNear() {
	n := uint64(s.tp.NumServers())
	e := [3]uint64{s.rng.Uint64() % n, s.rng.Uint64() % n, s.rng.Uint64()}
	if len(s.cf) > 0 && s.rng.Intn(2) == 0 {
		near := s.ends[s.cf[s.rng.Intn(len(s.cf))]]
		switch s.rng.Intn(3) {
		case 0:
			e = near
		case 1:
			e[0] = near[0]
		default:
			e[1] = near[1]
		}
	}
	if e[0] == e[1] {
		e[1] = (e[1] + 1) % n
	}
	f := &FlowDemand{
		Path:    s.tp.Path(topo.ServerID(e[0]), topo.ServerID(e[1]), e[2]),
		Queue:   s.rng.Intn(s.cur.Queues()),
		MaxRate: s.randomCap(),
	}
	s.ends[f] = e
	s.register(f)
}

// check runs the kernel comparison, then compares every rate's bits with a
// batch Allocate of snapshot copies.
func (s *sparseChurn) check(step int) {
	s.t.Helper()
	s.kernelPair.check(step)
	snaps := make([]FlowDemand, len(s.cf))
	ptrs := make([]*FlowDemand, len(s.cf))
	for i, f := range s.cf {
		snaps[i] = f.Snapshot()
		ptrs[i] = &snaps[i]
	}
	s.batch.Allocate(ptrs)
	checkTierIndex(s.t, s.batch)
	for i, f := range s.cf {
		if got, want := f.Rate, snaps[i].Rate; math.Float64bits(got) != math.Float64bits(want) {
			s.t.Fatalf("step %d: flow %d (queue %d, cap %v): rate %v, batch %v", step, i, f.Queue, f.MaxRate, got, want)
		}
	}
}
