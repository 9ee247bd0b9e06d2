// Package netmod models how the fabric divides link bandwidth among
// competing flows. It is the simulator's stand-in for the data plane the
// paper assumes: commodity switches with strict priority queuing (SPQ)
// carrying TCP traffic, optionally emulating SPQ with weighted round robin
// (WRR) for starvation mitigation (paper §IV.B).
//
// The model is fluid: at any instant every flow transmits at a single rate,
// and the allocator computes those rates from the flows' paths, priority
// queues, and per-flow caps. Within one priority tier the allocation is
// max-min fair (progressive filling / water-filling), which is the standard
// flow-level approximation of many TCP flows sharing links.
//
// The allocator is delta-driven: callers Register flows once, report
// changes with Update, retire flows with Unregister, and call Reallocate to
// refresh rates. Reallocate re-solves only from the lowest priority tier a
// delta touched — under SPQ, tiers above it are provably unaffected — while
// producing rates bit-identical to a from-scratch solve (see Reallocate).
// The batch Allocate entry point is retained as a thin wrapper and as the
// reference implementation the equivalence tests compare against.
package netmod

import (
	"fmt"
	"math"

	"gurita/internal/fmath"
	"gurita/internal/topo"
)

// Mode selects how priority tiers share a link.
type Mode int

// Allocation modes.
const (
	// ModeSPQ is strict priority queuing: tier q receives bandwidth only
	// after every tier < q is satisfied. This matches commodity-switch SPQ
	// and can starve low tiers.
	ModeSPQ Mode = iota + 1
	// ModeWRR emulates SPQ with weighted round robin: every tier is
	// guaranteed a share derived from the paper's SPQ waiting-time formula,
	// so low-priority traffic keeps trickling (starvation mitigation).
	ModeWRR
)

func (m Mode) String() string {
	switch m {
	case ModeSPQ:
		return "spq"
	case ModeWRR:
		return "wrr"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FlowDemand is one active flow as seen by the allocator. The simulator owns
// these structs and reuses them across allocation rounds.
//
// A demand is registered in at most one allocator at a time: its bookkeeping
// (its slot run in particular) indexes that allocator's internal state. To
// hand the same flow to a second allocator — a batch reference, say — pass a
// copy made with Snapshot, never a plain struct copy of a registered demand.
type FlowDemand struct {
	// Path is the sequence of directed links the flow traverses. An empty
	// path denotes a host-local transfer that never touches the fabric.
	// The path must not change while the flow is registered.
	Path []topo.LinkID
	// Queue is the priority tier (0 = highest). Values outside [0, queues)
	// are clamped.
	Queue int
	// MaxRate caps the flow's rate in bytes/second (the sender NIC or a
	// pacer). Zero means uncapped.
	MaxRate float64
	// Rate is the allocator's output, in bytes/second.
	Rate float64

	// Delta-engine bookkeeping (valid while registered).
	registered bool
	slotOff    int32   // start of the flow's run in Allocator.slotArena
	tier       int32   // clamped Queue; -1 for host-local flows
	tierIdx    int32   // index into Allocator.byQueue[tier] (or local)
	lead       int32   // first lead slot of its private groups, or -1 (see Allocator.nextLead)
	privIdx    int32   // index into Allocator.privFlows[tier] while lead >= 0
	capSeen    float64 // MaxRate at the last Register/Update
}

// Snapshot returns a copy of the demand carrying only its inputs (path,
// queue, cap) with clean allocator bookkeeping — the form a reference batch
// Allocate expects when cross-checking an incrementally maintained set.
func (f *FlowDemand) Snapshot() FlowDemand {
	return FlowDemand{Path: f.Path, Queue: f.Queue, MaxRate: f.MaxRate}
}

// Allocator computes per-flow rates. It is built for one topology and is
// reused across allocation instants; it is not safe for concurrent use.
//
// Per-link solver state is indexed by slot, not by LinkID: a link gets a
// dense slot the first time a registered flow crosses it and gives it back
// when its last flow unregisters (or on Reset), so the solver's arrays span
// the links in use rather than the whole fabric.
type Allocator struct {
	mode   Mode
	queues int
	eta    float64 // target utilization used when deriving WRR weights

	capacity func(topo.LinkID) float64
	// override holds per-link capacity overrides set by SetLinkCapacity
	// (failed or degraded links); -1 means "no override, use the topology
	// capacity". nil until the first override — the fault-free path never
	// touches it. Indexed by LinkID.
	override []float64

	// Slot maps. slotOf is the only link-sized array: a link's slot, -1 while
	// no registered flow crosses it. slotLink maps each slot handed out since
	// the last Reset back to its link; freeSlots holds the returned ones.
	slotOf    []int32
	slotLink  []topo.LinkID
	freeSlots []int32
	// slotArena holds each registered fabric flow's Path translated to
	// slots: a run of len(Path) entries from the flow's slotOff. freeRuns[n]
	// lists the offsets of n-long runs unregistered flows gave back, so the
	// arena spans the flows registered at once, not every flow ever seen.
	slotArena []int32
	freeRuns  [][]int32
	// hopPos parallels slotArena: for hop i of a registered fabric flow, the
	// position of that crossing in its slot's crossing list (cross).
	hopPos []int32

	// Everything below that is per link is indexed by slot and sized to the
	// peak number of slots in use.
	residual []float64
	count    []int32

	// Persistent registries maintained by Register/Unregister/Update.
	used    []int32 // slots of links crossed by >= 1 registered flow
	usedIdx []int32 // per-slot position in used
	linkRef []int32 // per-slot registered-flow crossing count
	byQueue [][]*FlowDemand
	local   []*FlowDemand // registered host-local flows (empty paths)
	// cross[s] lists every registered crossing of slot s as the crossing
	// flow's position in its tier, grouped by tier in tier order: tier q's
	// crossings are cross[s][lo:hi] with (lo, hi) = a.seg(s, q), read from
	// segEnd, which holds queues segment ends per slot. Tier changes move
	// crossings between segments, so a list only grows when the slot's
	// crossing count passes its peak.
	cross  [][]int32
	segEnd []int32
	// A slot is private while exactly one registered crossing uses it
	// (linkRef == 1) and shared from two on. A fill treats a private link
	// as a constraint of its flow (see waterfill), so only shared slots are
	// listed: shared holds them all, sharedIdx[s] is slot s's position in
	// it (-1 while private), and tierSlots[q] lists the shared slots tier
	// q's flows cross, tierSlotPos[q][s] being slot s's position in it. A
	// private slot's count is negative (privateCount, or a group's class;
	// see leadCount), and no fill's set-up of shared counts overwrites it.
	shared      []int32
	sharedIdx   []int32
	tierSlots   [][]int32
	tierSlotPos [][]int32
	// A flow's private links fall into groups by capacity bits, since links
	// that start a fill alike stay alike. Each group is kept at one of its
	// slots, its lead: f.lead is the flow's first lead and nextLead[l] the
	// one after lead l (-1 ends the chain). A lead's residual is the one
	// its group's links held when the flow froze in the last fill, and in a
	// fill its count names the group's class (leadCount). A registry
	// change rebuilds the flow's chain (regroup); nothing in it outlives a
	// solve. privFlows[q] lists the byQueue positions of tier q's flows
	// that have a group, so flows without one never reach class code.
	nextLead  []int32
	privFlows [][]int32

	// tierRes[q][s] snapshots the residual capacity of slot s at the start
	// of tier q's SPQ water-fill during the last solve. Restoring tierRes[q]
	// reproduces exactly the link state a from-scratch solve would present
	// to tier q, which is what makes the partial re-solve bit-exact. No
	// solve writes tierRes[0] — only acquireSlot and capacityChanged do — so
	// it is also the per-slot capacity cache, the one snapshot WRR keeps.
	// The snapshots span private slots too: each SPQ tier fill leaves them
	// their groups' final residuals (keepPrivate).
	tierRes [][]float64
	// dirtyMin is the lowest tier touched by a delta since the last
	// Reallocate; == queues when no delta is pending.
	dirtyMin int

	// Reusable scratch (no per-Reallocate allocation).
	wrrShares  []float64
	wrrWeights []float64
	pool       []float64     // WRR only
	spill      []*FlowDemand // the spill pass's work array: every tier, in order
	touched    []int32       // slots with >= 1 live crossing flow, compacted
	touchedIdx []int32       // per-slot position in touched (valid for touched slots)
	satBuf     []int32       // slots that saturated in the current round
	work       []*FlowDemand // the fill's flows, indexed by work index
	live       []int32       // work indices still unfrozen, compacted between rounds
	livePos    []int32       // work index -> position in live; -1 once frozen
	// The fill's scope: its saturation sweep walks the tiers [fillLo, fillHi)
	// of a slot's crossing list, and a crossing of tier q at byQueue
	// position i is work index workBase[q]+i.
	fillLo, fillHi int
	workBase       []int32
	// A uniform fill (every flow starting at rate 0) keeps the common rate
	// of its live flows in level; any other fill keeps each live flow's rate
	// in rate, by work index. Either is written into the flow's Rate when it
	// freezes or the fill ends.
	uniform bool
	level   float64
	rate    []float64
	// The fill's classes of private groups, one per distinct starting
	// residual (see waterfill). Class c's links hold residual clsRes[c] and
	// clsLive[c] counts its groups whose flow is live. Its members' work
	// indices form a list from clsHead[c] through memJ (the member) and
	// memNext (the next entry, -1 at the end). clsAct lists the classes
	// with a live group, clsPos[c] being class c's position in it, and
	// clsSat the classes that saturated in the current round.
	clsRes  []float64
	clsLive []int32
	clsPos  []int32
	clsHead []int32
	memJ    []int32
	memNext []int32
	clsAct  []int32
	clsSat  []int32
	// clsTab maps a starting residual's bits to its class: an open-
	// addressing table whose entries count only while their gen is clsGen,
	// so opening a fill's classes clears it by bumping clsGen. lastKey and
	// lastCls cache the latest lookup, which most private groups hit.
	clsTab  []classEntry
	clsGen  uint32
	lastKey uint64
	lastCls int32

	// Cumulative work counters (see Stats). Plain increments on paths that
	// already do real work, so they cost nothing measurable and — being
	// derived purely from the demand trajectory — are deterministic.
	stReallocs   int64
	stTierSolves int64
	stWFRounds   int64
}

// classEntry is one clsTab entry: the class of starting residual bits key,
// valid while gen is the allocator's clsGen.
type classEntry struct {
	key uint64
	gen uint32
	cls int32
}

// Stats are cumulative allocator work counters since construction: how many
// Reallocate calls did work, how many per-tier water-fill passes ran (SPQ
// suffix re-solves, WRR guaranteed-share phases and spill passes all count),
// and how many progressive-filling rounds those passes iterated. They are a
// pure function of the demand trajectory, so identical runs report identical
// stats; the engine folds them into Result.Counters.
type Stats struct {
	Reallocs        int64
	TierSolves      int64
	WaterfillRounds int64
}

// Stats returns the allocator's cumulative work counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Reallocs:        a.stReallocs,
		TierSolves:      a.stTierSolves,
		WaterfillRounds: a.stWFRounds,
	}
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithUtilization sets the target utilization η used to convert per-queue
// demand shares into the offered loads ρ_k of the WRR weight formula.
// η must be in (0, 1); the default is 0.95.
func WithUtilization(eta float64) Option {
	return func(a *Allocator) { a.eta = eta }
}

// NewAllocator builds an allocator for the given fabric with the given
// number of priority queues (the paper uses 4 in evaluation; commodity
// switches support 8).
func NewAllocator(t *topo.Topology, queues int, mode Mode, opts ...Option) (*Allocator, error) {
	if queues < 1 {
		return nil, fmt.Errorf("netmod: need at least one queue, got %d", queues)
	}
	if mode != ModeSPQ && mode != ModeWRR {
		return nil, fmt.Errorf("netmod: unknown mode %v", mode)
	}
	a := &Allocator{
		mode:        mode,
		queues:      queues,
		eta:         0.95,
		capacity:    t.LinkCapacity,
		slotOf:      make([]int32, t.NumLinks()),
		byQueue:     make([][]*FlowDemand, queues),
		tierSlots:   make([][]int32, queues),
		tierSlotPos: make([][]int32, queues),
		privFlows:   make([][]int32, queues),
		workBase:    make([]int32, queues),
		tierRes:     make([][]float64, queues),
		dirtyMin:    queues,
		wrrShares:   make([]float64, queues),
		wrrWeights:  make([]float64, queues),
	}
	for i := range a.slotOf {
		a.slotOf[i] = -1
	}
	if mode == ModeWRR {
		// WRR re-solves every tier from the capacities, so it keeps only the
		// tier-0 snapshot, the capacity cache.
		a.tierRes = a.tierRes[:1]
	}
	for _, o := range opts {
		o(a)
	}
	if a.eta <= 0 || a.eta >= 1 {
		return nil, fmt.Errorf("netmod: utilization must be in (0,1), got %v", a.eta)
	}
	return a, nil
}

// Queues returns the number of priority tiers.
func (a *Allocator) Queues() int { return a.queues }

// Mode returns the configured allocation mode.
func (a *Allocator) Mode() Mode { return a.mode }

// privateCount is the count of a private slot: negative, so no fill takes
// it for a crossing count.
const privateCount = -1

// leadCount is the count of a group's lead during a fill in which the
// group is in class c: below privateCount, so freeze knows the lead by the
// count it loads for every hop. leadCount is its own inverse.
func leadCount(c int32) int32 { return -2 - c }

// rate tolerance: completions and saturation use this epsilon, scaled to
// typical 10G capacities.
const epsRate = 1e-3 // bytes/second

// linkCap returns link l's effective capacity: the override when one is in
// force, the topology capacity otherwise.
func (a *Allocator) linkCap(l topo.LinkID) float64 {
	if a.override != nil {
		if c := a.override[l]; c >= 0 {
			return c
		}
	}
	return a.capacity(l)
}

// SetLinkCapacity overrides link l's capacity to c bytes/second (0 = the
// link is down) until ClearLinkCapacity. The override takes effect at the
// next Reallocate: if the link currently carries registered flows the whole
// fabric is re-solved from the top tier (the changed entering capacity can
// shift every tier's water level), otherwise only the stored snapshots are
// refreshed so a later Register sees the new value. Overrides survive Reset
// and batch Allocate calls — they model the fabric, not the working set.
func (a *Allocator) SetLinkCapacity(l topo.LinkID, c float64) {
	if c < 0 {
		c = 0
	}
	if a.override == nil {
		a.override = make([]float64, len(a.slotOf))
		for i := range a.override {
			a.override[i] = -1
		}
	}
	a.override[l] = c
	a.capacityChanged(l)
}

// ClearLinkCapacity removes link l's capacity override.
func (a *Allocator) ClearLinkCapacity(l topo.LinkID) {
	if a.override == nil || a.override[l] < 0 {
		return
	}
	a.override[l] = -1
	a.capacityChanged(l)
}

// capacityChanged refreshes link l's cached capacity after its effective
// capacity moved. For a link with registered flows the snapshot entering
// tier 0 is the capacity itself and every later tier's snapshot is stale, so
// the next Reallocate re-solves from tier 0 — exactly the arithmetic a
// from-scratch solve with the new capacity performs. An unused link has no
// slot and nothing to refresh: Register seeds a new slot from linkCap.
// A private slot also moves between its holder's groups.
func (a *Allocator) capacityChanged(l topo.LinkID) {
	if s := a.slotOf[l]; s >= 0 {
		a.tierRes[0][s] = a.linkCap(l)
		a.dirtyMin = 0
		if a.linkRef[s] == 1 {
			g, _ := a.holder(s)
			a.regroup(g)
		}
	}
}

// acquireSlot gives link l a slot: a returned one when any is free, else the
// next unused index, growing the per-slot arrays when it passes their
// length. A link no registered flow crossed carries no load at any tier, so
// its residual entering every tier is its capacity.
func (a *Allocator) acquireSlot(l topo.LinkID) int32 {
	var s int32
	if n := len(a.freeSlots); n > 0 {
		s = a.freeSlots[n-1]
		a.freeSlots = a.freeSlots[:n-1]
		a.slotLink[s] = l
	} else {
		s = int32(len(a.slotLink))
		a.slotLink = append(a.slotLink, l)
		if int(s) == len(a.linkRef) {
			a.growSlots()
		}
	}
	a.slotOf[l] = s
	a.usedIdx[s] = int32(len(a.used))
	a.used = append(a.used, s)
	a.sharedIdx[s] = -1
	c := a.linkCap(l)
	for q := range a.tierRes {
		a.tierRes[q][s] = c
	}
	return s
}

// growSlots appends one entry to every per-slot array.
func (a *Allocator) growSlots() {
	a.residual = append(a.residual, 0)
	a.count = append(a.count, 0)
	a.usedIdx = append(a.usedIdx, 0)
	a.linkRef = append(a.linkRef, 0)
	a.sharedIdx = append(a.sharedIdx, 0)
	a.nextLead = append(a.nextLead, 0)
	a.touchedIdx = append(a.touchedIdx, 0)
	a.cross = append(a.cross, nil)
	if a.mode == ModeWRR {
		a.pool = append(a.pool, 0)
	}
	for q := range a.tierRes {
		a.tierRes[q] = append(a.tierRes[q], 0)
	}
	for q := range a.tierSlotPos {
		a.segEnd = append(a.segEnd, 0)
		a.tierSlotPos[q] = append(a.tierSlotPos[q], 0)
	}
}

// releaseSlot returns slot s, whose link just lost its last registered flow.
// The slot is still listed as shared when that flow crossed it twice.
func (a *Allocator) releaseSlot(s int32) {
	if a.sharedIdx[s] >= 0 {
		a.unlistShared(s)
	}
	i := a.usedIdx[s]
	last := len(a.used) - 1
	moved := a.used[last]
	a.used[i] = moved
	a.usedIdx[moved] = i
	a.used = a.used[:last]
	a.slotOf[a.slotLink[s]] = -1
	a.freeSlots = append(a.freeSlots, s)
}

// clampQueue maps an arbitrary Queue value into [0, queues).
func (a *Allocator) clampQueue(q int) int {
	if q < 0 {
		return 0
	}
	if q >= a.queues {
		return a.queues - 1
	}
	return q
}

// Register adds a flow to the allocator's working set. Host-local flows
// (empty path) receive their rate immediately and never dirty the fabric;
// fabric flows mark their tier dirty. Registering an already-registered
// flow is a no-op.
func (a *Allocator) Register(f *FlowDemand) {
	if !f.registered && a.register(f) {
		a.addCrossings(f)
		a.indexPrivate(f)
	}
}

// register enters flow f into the registries, all but the crossing lists,
// and reports whether it is a fabric flow, whose crossings the caller must
// index.
func (a *Allocator) register(f *FlowDemand) bool {
	f.registered = true
	f.capSeen = f.MaxRate
	if len(f.Path) == 0 {
		// Host-local transfer: the fabric does not constrain it.
		f.tier = -1
		f.tierIdx = int32(len(a.local))
		a.local = append(a.local, f)
		f.Rate = f.MaxRate
		if f.Rate == 0 {
			f.Rate = a.linkCap(0)
		}
		return false
	}
	f.Rate = 0
	f.lead = -1
	t := a.clampQueue(f.Queue)
	f.tier = int32(t)
	f.tierIdx = int32(len(a.byQueue[t]))
	a.byQueue[t] = append(a.byQueue[t], f)
	f.slotOff = a.takeRun(len(f.Path))
	run := a.slots(f)
	for i, l := range f.Path {
		s := a.slotOf[l]
		if s < 0 {
			s = a.acquireSlot(l)
		}
		a.linkRef[s]++
		run[i] = s
	}
	if t < a.dirtyMin {
		a.dirtyMin = t
	}
	return true
}

// Unregister removes a flow from the working set. Unregistering a flow that
// is not registered is a no-op.
func (a *Allocator) Unregister(f *FlowDemand) {
	if !f.registered {
		return
	}
	f.registered = false
	if f.tier < 0 {
		a.removeLocal(f)
		return
	}
	a.removeCrossings(f)
	if f.lead >= 0 {
		a.removePrivFlow(f)
	}
	a.removeFromTier(f)
	for _, s := range a.slots(f) {
		a.linkRef[s]--
		switch {
		case a.linkRef[s] == 0:
			a.releaseSlot(s)
		case len(a.cross[s]) == 1 && a.sharedIdx[s] >= 0:
			// One crossing is left once f's are gone (removeCrossings),
			// whatever f's other hops on s still hold in linkRef.
			a.unshare(s)
		}
	}
	a.putRun(f.slotOff, len(f.Path))
	if t := int(f.tier); t < a.dirtyMin {
		a.dirtyMin = t
	}
}

// Update notifies the allocator that a registered flow's Queue or MaxRate
// changed. Path changes are not supported: Unregister and Register instead.
// Calling Update on a flow whose fields did not change is a cheap no-op, so
// callers may over-report.
func (a *Allocator) Update(f *FlowDemand) {
	if !f.registered {
		return
	}
	if f.tier < 0 {
		// Bitwise change detection on a caller-set field: an epsilon would
		// silently drop small real updates.
		if f.MaxRate != f.capSeen {
			f.capSeen = f.MaxRate
			f.Rate = f.MaxRate
			if f.Rate == 0 {
				f.Rate = a.linkCap(0)
			}
		}
		return
	}
	if t := a.clampQueue(f.Queue); t != int(f.tier) {
		old := int(f.tier)
		a.removeCrossings(f)
		if f.lead >= 0 {
			a.removePrivFlow(f)
		}
		a.removeFromTier(f)
		f.tier = int32(t)
		f.tierIdx = int32(len(a.byQueue[t]))
		a.byQueue[t] = append(a.byQueue[t], f)
		a.addCrossings(f)
		if f.lead >= 0 {
			a.addPrivFlow(f)
		}
		if old < a.dirtyMin {
			a.dirtyMin = old
		}
		if t < a.dirtyMin {
			a.dirtyMin = t
		}
	}
	// Bitwise change detection, as above.
	if f.MaxRate != f.capSeen {
		f.capSeen = f.MaxRate
		if t := int(f.tier); t < a.dirtyMin {
			a.dirtyMin = t
		}
	}
}

// takeRun returns the offset of an n-long run in slotArena: one an
// unregistered flow gave back when there is one, else a new run at the end.
func (a *Allocator) takeRun(n int) int32 {
	if n < len(a.freeRuns) {
		if free := a.freeRuns[n]; len(free) > 0 {
			a.freeRuns[n] = free[:len(free)-1]
			return free[len(free)-1]
		}
	}
	off := int32(len(a.slotArena))
	a.slotArena = append(a.slotArena, make([]int32, n)...)
	a.hopPos = append(a.hopPos, make([]int32, n)...)
	return off
}

// putRun gives the n-long run at off back for a later takeRun.
func (a *Allocator) putRun(off int32, n int) {
	for n >= len(a.freeRuns) {
		a.freeRuns = append(a.freeRuns, nil)
	}
	a.freeRuns[n] = append(a.freeRuns[n], off)
}

// slots returns registered fabric flow f's Path translated to slots.
func (a *Allocator) slots(f *FlowDemand) []int32 {
	return a.slotArena[f.slotOff : int(f.slotOff)+len(f.Path)]
}

// removeFromTier swap-removes a fabric flow from its tier registry. The
// flow that takes its place keeps its crossings but changes position, so
// its entries in the crossing lists and in privFlows are re-pointed; f's
// own entries must already be gone (removeCrossings, removePrivFlow).
func (a *Allocator) removeFromTier(f *FlowDemand) {
	fl := a.byQueue[f.tier]
	last := len(fl) - 1
	moved := fl[last]
	fl[f.tierIdx] = moved
	moved.tierIdx = f.tierIdx
	fl[last] = nil
	a.byQueue[f.tier] = fl[:last]
	if moved != f {
		for i, s := range a.slots(moved) {
			a.cross[s][a.hopPos[int(moved.slotOff)+i]] = moved.tierIdx
		}
		if moved.lead >= 0 {
			a.privFlows[f.tier][moved.privIdx] = moved.tierIdx
		}
	}
}

// regroup rebuilds fabric flow f's chain of private groups from its hops:
// each hop on a private slot joins the group of its capacity, and the
// first hop of a capacity leads the group. It keeps f listed in privFlows
// exactly while f has a group.
func (a *Allocator) regroup(f *FlowDemand) {
	had := f.lead >= 0
	f.lead = -1
	var last int32 = -1
	for _, s := range a.slots(f) {
		if a.linkRef[s] != 1 {
			continue
		}
		a.count[s] = privateCount
		if a.leadOf(f, s) >= 0 {
			continue
		}
		a.nextLead[s] = -1
		if last < 0 {
			f.lead = s
		} else {
			a.nextLead[last] = s
		}
		last = s
	}
	switch has := f.lead >= 0; {
	case has && !had:
		a.addPrivFlow(f)
	case had && !has:
		a.removePrivFlow(f)
	}
}

// leadOf returns the lead of fabric flow f's group of slot s's capacity,
// or -1 when f has no such group.
func (a *Allocator) leadOf(f *FlowDemand, s int32) int32 {
	c := math.Float64bits(a.tierRes[0][s])
	l := f.lead
	for l >= 0 && math.Float64bits(a.tierRes[0][l]) != c {
		l = a.nextLead[l]
	}
	return l
}

// holder returns the flow that holds private slot s and its tier.
func (a *Allocator) holder(s int32) (*FlowDemand, int) {
	e := a.segEnd[int(s)*a.queues : int(s+1)*a.queues]
	u := 0
	for e[u] == 0 {
		u++
	}
	return a.byQueue[u][a.cross[s][0]], u
}

// addPrivFlow lists fabric flow f, which has a private group, in privFlows.
func (a *Allocator) addPrivFlow(f *FlowDemand) {
	f.privIdx = int32(len(a.privFlows[f.tier]))
	a.privFlows[f.tier] = append(a.privFlows[f.tier], f.tierIdx)
}

// removePrivFlow swap-removes fabric flow f from privFlows.
func (a *Allocator) removePrivFlow(f *FlowDemand) {
	pf := a.privFlows[f.tier]
	last := pf[len(pf)-1]
	pf[f.privIdx] = last
	a.byQueue[f.tier][last].privIdx = f.privIdx
	a.privFlows[f.tier] = pf[:len(pf)-1]
}

// addTierSlot lists shared slot s in tier q's slot list.
func (a *Allocator) addTierSlot(q int, s int32) {
	a.tierSlotPos[q][s] = int32(len(a.tierSlots[q]))
	a.tierSlots[q] = append(a.tierSlots[q], s)
}

// dropTierSlot swap-removes slot s from tier q's slot list.
func (a *Allocator) dropTierSlot(q int, s int32) {
	ts := a.tierSlots[q]
	k := a.tierSlotPos[q][s]
	lastS := ts[len(ts)-1]
	ts[k] = lastS
	a.tierSlotPos[q][lastS] = k
	a.tierSlots[q] = ts[:len(ts)-1]
}

// indexPrivate classifies newly registered fabric flow f's hops once its
// crossings are indexed: a hop on a slot only f crosses is private and
// joins f's groups, and a slot that gained its second crossing becomes
// shared.
func (a *Allocator) indexPrivate(f *FlowDemand) {
	private := false
	for _, s := range a.slots(f) {
		switch {
		case a.linkRef[s] == 1:
			private = true
		case a.sharedIdx[s] < 0:
			a.share(s, f)
		}
	}
	if private {
		a.regroup(f)
	}
}

// share makes slot s, private until f's crossings joined it, shared: it is
// listed in shared and in the slot list of every tier that crosses it, and
// the flow that held it privately, if any, drops it from its groups. The
// walk covers s's segment ends and its few crossings, not the tiers' flows.
func (a *Allocator) share(s int32, f *FlowDemand) {
	a.sharedIdx[s] = int32(len(a.shared))
	a.shared = append(a.shared, s)
	lo := int32(0)
	for q, hi := range a.segEnd[int(s)*a.queues : int(s+1)*a.queues] {
		if hi > lo {
			a.addTierSlot(q, s)
			for _, i := range a.cross[s][lo:hi] {
				if g := a.byQueue[q][i]; g != f {
					a.regroup(g)
				}
			}
		}
		lo = hi
	}
}

// unshare makes shared slot s, left with one crossing, private to the flow
// that holds it, in that flow's group of s's capacity.
func (a *Allocator) unshare(s int32) {
	a.unlistShared(s)
	g, u := a.holder(s)
	a.dropTierSlot(u, s)
	a.regroup(g)
}

// unlistShared swap-removes slot s from shared.
func (a *Allocator) unlistShared(s int32) {
	i := a.sharedIdx[s]
	last := a.shared[len(a.shared)-1]
	a.shared[i] = last
	a.sharedIdx[last] = i
	a.shared = a.shared[:len(a.shared)-1]
	a.sharedIdx[s] = -1
}

// seg returns the bounds of tier q's crossings in cross[s].
func (a *Allocator) seg(s int32, q int) (lo, hi int32) {
	e := a.segEnd[int(s)*a.queues:]
	if q > 0 {
		lo = e[q-1]
	}
	return lo, e[q]
}

// addCrossings enters registered fabric flow f, already at its position in
// byQueue[f.tier], into the crossing lists of the slots it crosses. The new
// entry goes to the end of its tier's segment: the list grows by one, and
// each later tier's segment shifts right by moving its first entry to its
// end. A slot that was shared already joins the tier's slot list with the
// tier's first crossing; one that becomes shared is listed by share.
func (a *Allocator) addCrossings(f *FlowDemand) {
	q := int(f.tier)
	for i, s := range a.slots(f) {
		e := a.segEnd[int(s)*a.queues : int(s+1)*a.queues]
		list := append(a.cross[s], 0)
		a.cross[s] = list
		hole := int32(len(list) - 1)
		for t := a.queues - 1; t > q; t-- {
			if lo := e[t-1]; lo < hole {
				a.moveCrossing(s, t, lo, hole)
				hole = lo
			}
			e[t]++
		}
		list[hole] = f.tierIdx
		a.hopPos[int(f.slotOff)+i] = hole
		e[q]++
		if lo, _ := a.seg(s, q); hole == lo && a.sharedIdx[s] >= 0 { // the tier's first crossing of s
			a.addTierSlot(q, s)
		}
	}
}

// indexCrossings builds the crossing lists, the shared and tier slot lists
// and the private-hop records of every registered fabric flow at once, for
// Allocate: walking the tiers in order fills each list segment by segment
// with no moves, counting each tier's crossings in its segEnd entry, and one
// prefix sum per slot turns the counts into segment ends. The lists must be
// empty (Reset). Calling addCrossings per flow in input order builds an
// equivalent index, but each crossing of an earlier tier then shifts every
// later tier's segment, which made BenchmarkAllocateSPQ about 1.7x slower.
func (a *Allocator) indexCrossings() {
	for q, fl := range a.byQueue {
		for _, f := range fl {
			private := false
			for i, s := range a.slots(f) {
				list := a.cross[s]
				a.hopPos[int(f.slotOff)+i] = int32(len(list))
				a.cross[s] = append(list, f.tierIdx)
				n := &a.segEnd[int(s)*a.queues+q]
				*n++
				switch {
				case a.linkRef[s] == 1:
					private = true
				case *n == 1:
					a.addTierSlot(q, s)
				}
			}
			if private {
				a.regroup(f)
			}
		}
	}
	for _, s := range a.used {
		e := a.segEnd[int(s)*a.queues : int(s+1)*a.queues]
		for q := 1; q < len(e); q++ {
			e[q] += e[q-1]
		}
		if a.linkRef[s] > 1 {
			a.sharedIdx[s] = int32(len(a.shared))
			a.shared = append(a.shared, s)
		}
	}
}

// removeCrossings takes f's entries out of the crossing lists of the slots
// it crosses: the last entry of f's tier segment fills the gap, each later
// tier's segment shifts left by moving its last entry to its start, and the
// list shrinks by one. A shared slot the tier no longer crosses leaves the
// tier's slot list. f must still be at its position in byQueue[f.tier].
func (a *Allocator) removeCrossings(f *FlowDemand) {
	q := int(f.tier)
	for i, s := range a.slots(f) {
		e := a.segEnd[int(s)*a.queues : int(s+1)*a.queues]
		hole := e[q] - 1
		if p := a.hopPos[int(f.slotOff)+i]; p != hole {
			a.moveCrossing(s, q, hole, p)
		}
		e[q]--
		for t := q + 1; t < a.queues; t++ {
			if last := e[t] - 1; last > hole {
				a.moveCrossing(s, t, last, hole)
				hole = last
			}
			e[t]--
		}
		a.cross[s] = a.cross[s][:hole]
		if lo, hi := a.seg(s, q); hi == lo && a.sharedIdx[s] >= 0 {
			a.dropTierSlot(q, s)
		}
	}
}

// moveCrossing moves the tier-t crossing at position from of cross[s] to
// position to, updating the hopPos of the flow it belongs to: the hop that
// crosses s and sits at from, which tells two crossings of one slot by the
// same flow apart.
func (a *Allocator) moveCrossing(s int32, t int, from, to int32) {
	list := a.cross[s]
	g := a.byQueue[t][list[from]]
	list[to] = list[from]
	off := int(g.slotOff)
	for h, gs := range a.slots(g) {
		if gs == s && a.hopPos[off+h] == from {
			a.hopPos[off+h] = to
			return
		}
	}
}

// removeLocal swap-removes a host-local flow from the local registry.
func (a *Allocator) removeLocal(f *FlowDemand) {
	last := len(a.local) - 1
	moved := a.local[last]
	a.local[f.tierIdx] = moved
	moved.tierIdx = f.tierIdx
	a.local[last] = nil
	a.local = a.local[:last]
}

// Dirty reports whether any delta since the last Reallocate requires rates
// to be recomputed.
func (a *Allocator) Dirty() bool { return a.dirtyMin < a.queues }

// Reset unregisters every flow, returning the allocator to its initial
// state. The next Reallocate after new registrations runs a full solve.
func (a *Allocator) Reset() {
	for q := range a.byQueue {
		for i, f := range a.byQueue[q] {
			f.registered = false
			a.byQueue[q][i] = nil
		}
		a.byQueue[q] = a.byQueue[q][:0]
	}
	for i, f := range a.local {
		f.registered = false
		a.local[i] = nil
	}
	a.local = a.local[:0]
	for q := range a.tierSlots {
		a.tierSlots[q] = a.tierSlots[q][:0]
		a.privFlows[q] = a.privFlows[q][:0]
	}
	a.shared = a.shared[:0]
	for _, s := range a.used {
		a.cross[s] = a.cross[s][:0]
		clear(a.segEnd[int(s)*a.queues : int(s+1)*a.queues])
		a.slotOf[a.slotLink[s]] = -1
		a.linkRef[s] = 0
	}
	a.used = a.used[:0]
	a.slotLink = a.slotLink[:0]
	a.freeSlots = a.freeSlots[:0]
	a.slotArena = a.slotArena[:0]
	a.hopPos = a.hopPos[:0]
	for n := range a.freeRuns {
		a.freeRuns[n] = a.freeRuns[n][:0]
	}
	a.dirtyMin = 0
}

// Reallocate recomputes rates after deltas. Under SPQ it restores the link
// residuals snapshotted at the start of the lowest dirty tier and re-runs
// the water-fill for that tier and every one below it; higher tiers keep
// their rates. This is bit-identical to a from-scratch solve: a tier's
// water-fill depends only on its own flow set and on the residual capacity
// higher tiers left behind, and both are unchanged for tiers above the
// lowest delta (progressive filling itself is iteration-order independent,
// so re-solving a suffix of tiers replays exactly the arithmetic the batch
// path would perform). Under WRR every delta forces a full re-solve, because
// the demand-share weights couple all tiers. No-op when nothing is dirty.
func (a *Allocator) Reallocate() {
	if a.dirtyMin >= a.queues {
		return
	}
	a.stReallocs++
	switch a.mode {
	case ModeSPQ:
		start := a.dirtyMin
		res := a.tierRes[start]
		for _, s := range a.used {
			a.residual[s] = res[s]
		}
		for q := start; q < a.queues; q++ {
			if q > start {
				snap := a.tierRes[q]
				for _, s := range a.used {
					snap[s] = a.residual[s]
				}
			}
			a.fillTier(q, 1)
			a.keepPrivate(q)
		}
	case ModeWRR:
		a.reallocateWRR()
	}
	a.dirtyMin = a.queues
}

// Allocate assigns Rate to every flow in flows, replacing any previously
// registered working set — the batch entry point, equivalent to Reset,
// Register for every flow, and one full Reallocate. Rates satisfy:
//
//   - per-link conservation: the sum of rates crossing any link never
//     exceeds its capacity;
//   - SPQ: a tier receives bandwidth on a link only from what higher tiers
//     left; WRR: each tier is guaranteed its weight share, and unused
//     guarantees spill over (work conserving);
//   - within a tier, max-min fairness subject to MaxRate caps.
func (a *Allocator) Allocate(flows []*FlowDemand) {
	a.Reset()
	for _, f := range flows {
		// The batch contract predates registration: the input is the whole
		// working set, whatever state the structs carry (e.g. snapshots of
		// demands registered elsewhere).
		a.register(f)
	}
	a.indexCrossings()
	a.Reallocate()
	// An empty flow set registers nothing, leaving Reset's forced dirty
	// marker in place; clear it so Dirty() stays accurate.
	a.dirtyMin = a.queues
}

// reallocateWRR implements the two-phase WRR emulation from the persistent
// registries: phase one gives each tier its guaranteed weight share of every
// link; phase two pools the leftovers and water-fills across all still-
// unsatisfied flows, making the discipline work conserving like a real WRR
// scheduler.
func (a *Allocator) reallocateWRR() {
	total := 0.0
	for q := range a.byQueue {
		a.wrrShares[q] = float64(len(a.byQueue[q]))
		total += a.wrrShares[q]
	}
	if total > 0 {
		for q := range a.wrrShares {
			a.wrrShares[q] /= total
		}
	}
	weights := starvationWeightsInto(a.wrrWeights, a.wrrShares, a.eta)

	// Phase 1: per-tier guaranteed share. Each link the tier crosses gets
	// the tier's slice of its pool as residual; after the water-fill, what
	// the tier did not consume returns to the pool as "unguaranteed"
	// capacity, shrinking the pool by what was used. On a link the tier does
	// not cross the residual stays the slice itself, and with finite
	// capacities pool -= pool·w − pool·w leaves the pool exactly as it was
	// (x − x = +0, and p − (+0) = p), so only the tier's own links are
	// visited. A private link's pool is therefore its capacity until its
	// flow's tier, and fillTier and fillSpill start its group from the
	// capacity, so the pool is kept for shared slots only.
	capacity := a.tierRes[0]
	for _, s := range a.shared {
		a.pool[s] = capacity[s]
	}
	for q := 0; q < a.queues; q++ {
		if len(a.byQueue[q]) == 0 {
			continue
		}
		w := weights[q]
		slots := a.tierSlots[q]
		for _, s := range slots {
			a.residual[s] = a.pool[s] * w
		}
		a.fillTier(q, w)
		for _, s := range slots {
			// The conversion rounds the product, so no platform fuses it.
			a.pool[s] -= float64(a.pool[s]*w) - a.residual[s]
		}
	}

	// Phase 2: spill leftover capacity to every flow not yet at its cap.
	for _, s := range a.shared {
		a.residual[s] = a.pool[s]
	}
	a.fillSpill()
}

// keepPrivate leaves each private slot of tier q's flows the residual its
// group's lead ended tier q's SPQ fill with. Only tier q crosses the slot,
// so this is the residual entering every later tier, and the snapshots
// stay exact on private slots as on shared ones: a slot that turns shared
// needs no rebuild. The slot entered the fill at its capacity, which is
// where its group started.
//
// Allocates nothing (TestReregisterAllocatesNothing/spq): plain stores into
// the per-slot residuals.
func (a *Allocator) keepPrivate(q int) {
	fl := a.byQueue[q]
	for _, j := range a.privFlows[q] {
		f := fl[j]
		for _, s := range a.slots(f) {
			if a.count[s] < 0 {
				a.residual[s] = a.residual[a.leadOf(f, s)]
			}
		}
	}
}

// fillTier water-fills tier q's flows, every one starting at rate 0, against
// the current residuals. The touched list is the tier's shared slot list and
// the crossing counts its segment lengths, and the work array is byQueue[q]
// itself, so a flow's work index is its position in its tier. A private
// group starts from float64(capacity·w): WRR phase 1 passes the tier's
// weight, and SPQ passes 1, for which the product is the capacity itself.
//
// Allocates nothing (TestReregisterAllocatesNothing): copies the tier's link
// index into the pooled fill arrays.
func (a *Allocator) fillTier(q int, w float64) {
	touched := a.touched[:0]
	for _, s := range a.tierSlots[q] {
		lo, hi := a.seg(s, q)
		a.count[s] = hi - lo
		a.touchedIdx[s] = int32(len(touched))
		touched = append(touched, s)
	}
	a.touched = touched
	fl := a.byQueue[q]
	for len(a.livePos) < len(fl) {
		a.livePos = append(a.livePos, 0)
	}
	live := a.live[:0]
	for j := range fl {
		live = append(live, int32(j))
		a.livePos[j] = int32(j)
	}
	a.live = live
	a.openClasses()
	for _, j := range a.privFlows[q] {
		for l := fl[j].lead; l >= 0; l = a.nextLead[l] {
			// The conversion rounds the product as phase 1's pool·w does.
			a.count[l] = leadCount(a.joinClass(j, float64(a.tierRes[0][l]*w)))
		}
	}
	a.work = fl
	a.workBase[q] = 0
	a.fillLo, a.fillHi = q, q+1
	a.waterfill(true)
}

// fillSpill runs WRR's phase 2 over every registered fabric flow that phase
// 1 left below its cap, each starting from its phase-1 rate, against the
// pooled leftovers in residual. The work array lists every tier in order,
// so tier q's flow at position i has work index workBase[q]+i; the flows
// phase 1 capped sit in it frozen from the start. The crossing counts start
// from linkRef minus the capped flows' crossings. A private group starts
// from its pool after phase 1, capacity − (float64(capacity·w) − r), where
// w is its flow's tier weight and r the residual phase 1 left its lead.
//
// Allocates nothing (TestReregisterAllocatesNothing/wrr): one pass over the
// registered flows into the pooled fill arrays.
func (a *Allocator) fillSpill() {
	for _, s := range a.shared {
		a.count[s] = a.linkRef[s]
	}
	a.openClasses()
	work := a.spill[:0]
	live := a.live[:0]
	for q, fl := range a.byQueue {
		a.workBase[q] = int32(len(work))
		w := a.wrrWeights[q]
		for _, f := range fl {
			j := int32(len(work))
			work = append(work, f)
			pos := int32(-1)
			if f.MaxRate > 0 && fmath.AtLeast(f.Rate, f.MaxRate, epsRate) {
				for _, s := range a.slots(f) {
					if a.count[s] > 0 { // not privateCount
						a.count[s]--
					}
				}
			} else {
				pos = int32(len(live))
				live = append(live, j)
				for l := f.lead; l >= 0; l = a.nextLead[l] {
					c := a.tierRes[0][l]
					a.count[l] = leadCount(a.joinClass(j, c-(float64(c*w)-a.residual[l])))
				}
			}
			if int(j) < len(a.livePos) {
				a.livePos[j] = pos
			} else {
				a.livePos = append(a.livePos, pos)
			}
			if int(j) < len(a.rate) {
				a.rate[j] = f.Rate
			} else {
				a.rate = append(a.rate, f.Rate)
			}
		}
	}
	touched := a.touched[:0]
	for _, s := range a.shared {
		if a.count[s] > 0 {
			a.touchedIdx[s] = int32(len(touched))
			touched = append(touched, s)
		}
	}
	a.work, a.live, a.touched = work, live, touched
	a.fillLo, a.fillHi = 0, a.queues
	a.waterfill(false)
	for i := range work {
		work[i] = nil
	}
	a.spill = work[:0]
}

// freeze retires work flow j from the current fill: its rate is written
// into its Rate, its shared path counts drop, links left with no live
// crossing flow leave the touched list, its group leads take their
// classes' residuals and leave them, and the flow leaves the live set. All
// removals are O(1) swap-removes.
//
// Allocates nothing (TestReregisterAllocatesNothing): swap-removes over the
// compacted work/live/touched arrays.
func (a *Allocator) freeze(j int32) {
	f := a.work[j]
	if a.uniform {
		f.Rate = a.level
	} else {
		f.Rate = a.rate[j]
	}
	for _, s := range a.slots(f) {
		c := a.count[s]
		if c < 0 {
			if c != privateCount {
				a.leaveClass(s, leadCount(c))
			}
			continue
		}
		a.count[s] = c - 1
		if c == 1 {
			ti := a.touchedIdx[s]
			last := len(a.touched) - 1
			lastS := a.touched[last]
			a.touched[ti] = lastS
			a.touchedIdx[lastS] = ti
			a.touched = a.touched[:last]
		}
	}
	p := a.livePos[j]
	last := int32(len(a.live) - 1)
	lastJ := a.live[last]
	a.live[p] = lastJ
	a.livePos[lastJ] = p
	a.live = a.live[:last]
	a.livePos[j] = -1
}

// openClasses empties the class table for a new fill.
func (a *Allocator) openClasses() {
	a.clsAct = a.clsAct[:0]
	a.clsRes = a.clsRes[:0]
	a.memJ = a.memJ[:0]
	a.memNext = a.memNext[:0]
	if a.clsGen++; a.clsGen == 0 { // wrapped: entries of gen 0 would count
		clear(a.clsTab)
		a.clsGen = 1
	}
}

// joinClass enters a private group of live work flow j into the class of
// starting residual x, opening the class when the fill has none yet, and
// returns the class.
//
// Allocates nothing (TestReregisterAllocatesNothing): the class arrays and
// table reach their size in the first solves.
func (a *Allocator) joinClass(j int32, x float64) int32 {
	key := math.Float64bits(x)
	c := a.lastCls
	if len(a.clsRes) == 0 || key != a.lastKey {
		c = a.findClass(key, x)
		a.lastKey, a.lastCls = key, c
	}
	a.clsLive[c]++
	a.memNext = append(a.memNext, a.clsHead[c])
	a.clsHead[c] = int32(len(a.memJ))
	a.memJ = append(a.memJ, j)
	return c
}

// findClass returns the class of starting residual x (bits key) from
// clsTab, opening it when the fill has none.
func (a *Allocator) findClass(key uint64, x float64) int32 {
	if 2*(len(a.clsRes)+1) > len(a.clsTab) {
		a.growClassTab()
	}
	mask := len(a.clsTab) - 1
	for i := classHash(key) & mask; ; i = (i + 1) & mask {
		e := &a.clsTab[i]
		if e.gen != a.clsGen {
			c := a.newClass(x)
			*e = classEntry{key: key, gen: a.clsGen, cls: c}
			return c
		}
		if e.key == key {
			return e.cls
		}
	}
}

// classHash spreads residual bits over the table (Fibonacci hashing): the
// low mantissa bits of capacities are mostly zero.
func classHash(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> 32)
}

// growClassTab doubles clsTab and re-enters the fill's classes, whose
// residuals are still their starting ones while the fill is set up.
func (a *Allocator) growClassTab() {
	a.clsTab = make([]classEntry, max(16, 2*len(a.clsTab)))
	mask := len(a.clsTab) - 1
	for c, x := range a.clsRes {
		key := math.Float64bits(x)
		i := classHash(key) & mask
		for a.clsTab[i].gen == a.clsGen {
			i = (i + 1) & mask
		}
		a.clsTab[i] = classEntry{key: key, gen: a.clsGen, cls: int32(c)}
	}
}

// newClass opens a class of private links starting at residual x, with no
// member yet, and lists it as active.
func (a *Allocator) newClass(x float64) int32 {
	c := int32(len(a.clsRes))
	a.clsRes = append(a.clsRes, x)
	if int(c) == len(a.clsLive) {
		a.clsLive = append(a.clsLive, 0)
		a.clsPos = append(a.clsPos, 0)
		a.clsHead = append(a.clsHead, 0)
	}
	a.clsLive[c] = 0
	a.clsHead[c] = -1
	a.clsPos[c] = int32(len(a.clsAct))
	a.clsAct = append(a.clsAct, c)
	return c
}

// leaveClass retires the private group led by slot l, in class c, as its
// flow freezes: the lead keeps the class's residual, and a class left with
// no live group leaves the active list.
//
// Allocates nothing (TestReregisterAllocatesNothing): swap-removes over the
// active class list.
func (a *Allocator) leaveClass(l, c int32) {
	a.residual[l] = a.clsRes[c]
	if a.clsLive[c]--; a.clsLive[c] > 0 {
		return
	}
	p := a.clsPos[c]
	last := a.clsAct[len(a.clsAct)-1]
	a.clsAct[p] = last
	a.clsPos[last] = p
	a.clsAct = a.clsAct[:len(a.clsAct)-1]
}

// capSlack over-bounds the float error the capLB bookkeeping in waterfill
// can accumulate in one round (~1e-12 relative, versus ~1e-16 actual), so
// the scan-skip decisions stay conservative. Slack only gates which scans
// run — never the arithmetic — so overshooting costs a redundant scan, not
// correctness. The conversion rounds the product, so the callers' sums never
// fuse it into a multiply-add on platforms that have one.
func capSlack(x, d float64) float64 {
	return float64(1e-12 * (math.Abs(x) + math.Abs(d) + 1))
}

// shareFilter lets a round's pass skip the division for a link that cannot
// hold the smallest share: with hi = next·shareFilter for the running
// minimum next, r ≥ hi·c proves r/c ≥ next in exact arithmetic — the factor
// covers the two roundings in hi·c many times over — so r/c rounds to at
// least next (rounding is monotone) and the strict test share < next would
// fail anyway.
const shareFilter = 1 + 0x1p-40

// minShare is the smallest per-link fair share residual/count over the
// touched links and the active classes, whose share is their residual, or
// -1 when there is none.
func (a *Allocator) minShare() float64 {
	m := -1.0
	for _, s := range a.touched {
		if share := a.residual[s] / float64(a.count[s]); m < 0 || share < m {
			m = share
		}
	}
	for _, c := range a.clsAct {
		if r := a.clsRes[c]; m < 0 || r < m {
			m = r
		}
	}
	return m
}

// waterfill runs progressive filling over the working set fillTier or
// fillSpill just built against the current residual capacities: all live
// flows' rates rise together; a flow freezes when a link on its path
// saturates or it reaches MaxRate. Residuals are decremented in place.
//
// Every shortcut below is a bit-exact rewrite of the naive algorithm — per
// round, a scan of every link for the smallest share, a second scan to
// subtract the rise, and one add per flow — so the iteration sets and the
// number of operations shrink, never the arithmetic:
//
//   - The round's rise d is a pure min, so scanning only touched links
//     (all of which have count > 0 by construction) and skipping the cap
//     scan when capLB proves no cap can bound d yields the same value.
//   - Rate increments and count decrements commute, so freeze order within
//     a round is free; a round's freeze set is determined by residuals
//     fixed before the sweep, so walking only the crossings of links that
//     saturated this round freezes exactly the flows the full per-flow path
//     scan would.
//   - capLB conservatively lower-bounds the live flows' smallest cap
//     headroom (MaxRate − Rate). It decides only whether the exact scans
//     run, never what they compute, so its float slack (capSlack) cannot
//     perturb rates.
//   - One pass per round: the pass that subtracts d·count also takes the
//     next round's minimum share over the links that did not saturate.
//     Every flow crossing a saturated link freezes, so those links leave
//     the touched set. A freeze only lowers a count, and a lower count only
//     raises a share (residual > 0, and rounding is monotone), so the
//     tracked minimum stays exact unless a freeze lowered the count of the
//     very link that holds it; only then is the minimum rescanned. The pass
//     divides only where a share can be the minimum (shareFilter).
//   - Equal starts give equal rates: in a uniform fill every flow starts at
//     0 and every live flow takes the same sequence of increments in the
//     same order, so all live flows hold one rate, the water level. The
//     fill adds d to the level once per round and writes it into a flow's
//     Rate when the flow freezes or the fill ends; a cap's headroom is
//     MaxRate − level, and since rounding is monotone the smallest headroom
//     is the smallest MaxRate minus the level. A fill whose flows start
//     apart (WRR's spill pass) adds d to each live flow's entry in rate.
//   - x − x = 0: WRR's phase 1 returns a tier's unused slice to the pool
//     only on the links the tier crosses, since on any other link the
//     update subtracts a product from itself (see reallocateWRR).
//   - A private link is its flow's constraint. A link one registered
//     crossing uses has count 1 in any fill its flow is live in, so each
//     round computes r ← max(0, r − d) (d·1 is d) and its share is r
//     (r/1 is r). Private links whose starting residuals have the same
//     bits therefore hold the same residual every round while their flows
//     are live. A flow's private links of one capacity start alike, so
//     they form one group, and the fill keeps one class per distinct
//     starting residual in place of their slots: the pass lowers each
//     active class once, tests it for saturation once and offers its
//     residual as a share, and a saturated class freezes its live member
//     flows. A member that freezes for another reason, or is live when the
//     fill ends, leaves its group the class residual of that moment. The
//     tracked minimum stays exact while the class holding it keeps a live
//     group, since its residual is still offered; only once that class
//     empties is the minimum rescanned.
//
// Allocates nothing (TestReregisterAllocatesNothing): the per-solve rounds
// run entirely over the pooled work arrays.
func (a *Allocator) waterfill(uniform bool) {
	a.stTierSolves++
	a.uniform, a.level = uniform, 0
	// Each round saturates at least one link or caps at least one flow, so
	// rounds are bounded; the guard protects against float corner cases.
	maxRounds := len(a.used) + len(a.live) + 2
	capLB := math.Inf(-1) // forces an exact cap scan in round one
	linkMin := a.minShare()
	for round := 0; len(a.live) > 0 && round < maxRounds; round++ {
		a.stWFRounds++
		// The water level can rise by the smallest per-link fair share or
		// until the nearest per-flow cap, whichever is smaller. The cap scan
		// only runs when a cap could actually bound this round.
		d := linkMin
		if linkMin < 0 || linkMin > capLB {
			rm, hasCap := a.capRoom()
			capLB = rm // +Inf when no live flow is capped, skipping all cap work
			if hasCap && (d < 0 || rm < d) {
				d = rm
			}
		}
		if d < 0 {
			break // no constrained links and no caps: nothing bounds rates
		}
		// No live flow can reach its cap this round when the smallest
		// headroom exceeds the rise by more than the freeze tolerance.
		sweepCaps := !math.IsInf(capLB, 1) && capLB-d <= epsRate+capSlack(capLB, d)

		// The one pass over the touched links: lower each residual, collect
		// the links that saturate, and take the smallest share of the rest.
		residual, count, sat, csat := a.residual, a.count, a.satBuf[:0], a.clsSat[:0]
		next, minSlot, minCount, minCls := -1.0, int32(-1), int32(0), int32(-1)
		hi := math.Inf(1)
		if d > 0 {
			if uniform {
				a.level += d
			} else {
				for _, j := range a.live {
					a.rate[j] += d
				}
			}
			for _, s := range a.touched {
				c := count[s]
				r := residual[s] - float64(d*float64(c))
				if r < 0 {
					r = 0
				}
				residual[s] = r
				if r <= epsRate {
					sat = append(sat, s)
					continue
				}
				if r < float64(hi*float64(c)) {
					if share := r / float64(c); next < 0 || share < next {
						next, minSlot, minCount = share, s, c
						hi = float64(next * shareFilter)
					}
				}
			}
			// The same steps for the classes, with count 1.
			for _, c := range a.clsAct {
				r := a.clsRes[c] - d
				if r < 0 {
					r = 0
				}
				a.clsRes[c] = r
				if r <= epsRate {
					csat = append(csat, c)
					continue
				}
				if r < hi && (next < 0 || r < next) {
					next, minSlot, minCls = r, -1, c
					hi = float64(next * shareFilter)
				}
			}
		} else {
			for _, s := range a.touched {
				r := residual[s]
				if r <= epsRate {
					sat = append(sat, s)
					continue
				}
				c := count[s]
				if share := r / float64(c); next < 0 || share < next {
					next, minSlot, minCount = share, s, c
				}
			}
			for _, c := range a.clsAct {
				r := a.clsRes[c]
				if r <= epsRate {
					csat = append(csat, c)
					continue
				}
				if next < 0 || r < next {
					next, minSlot, minCls = r, -1, c
				}
			}
		}
		a.satBuf, a.clsSat = sat, csat
		if !math.IsInf(capLB, 1) {
			capLB -= d + capSlack(capLB, d)
		}
		// Freeze capped flows (only when one can exist this round)...
		if sweepCaps {
			for i := 0; i < len(a.live); i++ {
				j := a.live[i]
				rate := a.level
				if !uniform {
					rate = a.rate[j]
				}
				if m := a.work[j].MaxRate; m > 0 && fmath.AtLeast(rate, m, epsRate) {
					a.freeze(j)
					i--
				}
			}
		}
		// ...then every flow crossing a link that saturated this round.
		for _, s := range a.satBuf {
			list := a.cross[s]
			for q := a.fillLo; q < a.fillHi; q++ {
				base := a.workBase[q]
				lo, hi := a.seg(s, q)
				for _, i := range list[lo:hi] {
					if j := base + i; a.livePos[j] >= 0 {
						a.freeze(j)
					}
				}
			}
		}
		// ...and every live member of a class that saturated.
		for _, c := range a.clsSat {
			for m := a.clsHead[c]; m >= 0; m = a.memNext[m] {
				if j := a.memJ[m]; a.livePos[j] >= 0 {
					a.freeze(j)
				}
			}
		}
		if (minSlot >= 0 && a.count[minSlot] != minCount) || (minCls >= 0 && a.clsLive[minCls] == 0) {
			linkMin = a.minShare()
		} else {
			linkMin = next
		}
	}
	for _, j := range a.live {
		f := a.work[j]
		if uniform {
			f.Rate = a.level
		} else {
			f.Rate = a.rate[j]
		}
		for l := f.lead; l >= 0; l = a.nextLead[l] {
			a.residual[l] = a.clsRes[leadCount(a.count[l])]
		}
	}
}

// capRoom returns the smallest cap headroom MaxRate − Rate over the live
// flows and whether any of them is capped; the headroom is +Inf when none
// is.
func (a *Allocator) capRoom() (rm float64, hasCap bool) {
	rm = math.Inf(1)
	if a.uniform {
		m := math.Inf(1)
		for _, j := range a.live {
			f := a.work[j]
			if f.MaxRate <= 0 {
				continue
			}
			hasCap = true
			if f.MaxRate < m {
				m = f.MaxRate
			}
		}
		if hasCap {
			rm = m - a.level
		}
		return rm, hasCap
	}
	for _, j := range a.live {
		f := a.work[j]
		if f.MaxRate <= 0 {
			continue
		}
		hasCap = true
		if room := f.MaxRate - a.rate[j]; room < rm {
			rm = room
		}
	}
	return rm, hasCap
}
