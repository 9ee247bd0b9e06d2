package sched

import (
	"gurita/internal/sim"
)

// Varys is the clairvoyant Smallest-Effective-Bottleneck-First scheduler of
// Chowdhury, Zhong & Stoica (SIGCOMM'14). It is NOT part of the paper's
// comparison set (which restricts itself to information-agnostic schemes
// plus Aalo); it is included as an upper-bound oracle: SEBF knows every
// flow's remaining bytes exactly and orders coflows by their effective
// bottleneck
//
//	Γ(c) = max over ports p of remainingBytes(c, p) / capacity(p)
//
// — the time the coflow needs at its most loaded ingress or egress port —
// and serves smallest Γ first. Within our priority data plane, the i-th
// smallest-Γ active coflow is assigned queue min(i, K−1).
type Varys struct {
	env sim.Env

	// order lists the active coflows in the previous call's SEBF order. Γ
	// moves little between calls, so re-sorting it by insertion is close to
	// linear.
	order []sebfRank

	// Per-call scratch, sized once in Init so AssignQueues allocates
	// nothing: queueOf is each active coflow's queue (by CoflowState.Index),
	// portLoad the remaining bytes per NIC port — ingress ports 0..n-1,
	// egress ports n..2n-1 for n servers, as a server's NIC is full duplex —
	// and touched the ports one gamma call wrote.
	queueOf  []int
	portLoad []float64
	touched  []int32
}

// sebfRank pairs a coflow with its effective bottleneck for sorting.
type sebfRank struct {
	cs    *sim.CoflowState
	gamma float64
}

// less is the SEBF order: smaller Γ first, ties broken by coflow ID, which
// makes the order total.
func (r sebfRank) less(o sebfRank) bool {
	if r.gamma < o.gamma {
		return true
	}
	if r.gamma > o.gamma {
		return false
	}
	return r.cs.Coflow.ID < o.cs.Coflow.ID
}

// NewVarys builds the SEBF oracle scheduler.
func NewVarys() *Varys { return &Varys{} }

var _ sim.Scheduler = (*Varys)(nil)

// Name implements sim.Scheduler.
func (*Varys) Name() string { return "varys" }

// Init implements sim.Scheduler.
func (v *Varys) Init(env sim.Env) {
	v.env = env
	v.queueOf = make([]int, env.Coflows)
	v.portLoad = make([]float64, 2*env.Topo.NumServers())
}

// OnJobArrival implements sim.Scheduler.
func (*Varys) OnJobArrival(*sim.JobState) {}

// OnCoflowStart implements sim.Scheduler.
func (v *Varys) OnCoflowStart(c *sim.CoflowState) {
	v.order = append(v.order, sebfRank{cs: c})
}

// OnCoflowComplete implements sim.Scheduler.
func (v *Varys) OnCoflowComplete(c *sim.CoflowState) {
	for i, x := range v.order {
		if x.cs == c {
			v.order = append(v.order[:i], v.order[i+1:]...)
			break
		}
	}
}

// OnJobComplete implements sim.Scheduler.
func (*Varys) OnJobComplete(*sim.JobState) {}

// gamma computes the effective bottleneck time of a coflow from exact
// remaining bytes (clairvoyance). Each port's load is summed in flow order.
func (v *Varys) gamma(c *sim.CoflowState) float64 {
	egress := int32(len(v.portLoad) / 2)
	for _, f := range c.Flows {
		if f.Done {
			continue
		}
		v.addLoad(int32(f.Flow.Src), f.Remaining)
		v.addLoad(egress+int32(f.Flow.Dst), f.Remaining)
	}
	worst := 0.0
	for _, p := range v.touched {
		if bytes := v.portLoad[p]; bytes > worst {
			worst = bytes
		}
		v.portLoad[p] = 0
	}
	v.touched = v.touched[:0]
	cap := v.env.Topo.LinkCapacity(0)
	if cap <= 0 {
		return worst
	}
	return worst / cap
}

// addLoad adds bytes to a port's load, recording the port the first time
// it is written (a port can be recorded twice only if it held exactly 0
// bytes in between, which is harmless).
func (v *Varys) addLoad(p int32, bytes float64) {
	if v.portLoad[p] == 0 {
		v.touched = append(v.touched, p)
	}
	v.portLoad[p] += bytes
}

// AssignQueues implements sim.Scheduler. Γ shrinks continuously with
// remaining bytes, so the SEBF order is re-derived every call; changed flows
// are found with a compare-and-set sweep.
func (v *Varys) AssignQueues(_ float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	order := v.order
	for i := range order {
		order[i].gamma = v.gamma(order[i].cs)
	}
	// Insertion sort: the comparator is total, so the result is the one
	// sorted order whatever the algorithm, and the previous call's order
	// makes this pass nearly linear.
	for i := 1; i < len(order); i++ {
		r := order[i]
		j := i
		for ; j > 0 && r.less(order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = r
	}
	lowest := v.env.Queues - 1
	for i, r := range order {
		v.queueOf[r.cs.Index()] = min(i, lowest)
	}
	for _, f := range added {
		f.SetQueue(v.queueOf[f.Coflow.Index()])
	}
	for _, f := range flows {
		if q := v.queueOf[f.Coflow.Index()]; q != f.Queue() {
			f.SetQueue(q)
			dirty = append(dirty, f)
		}
	}
	return dirty
}
