// Package topo builds the datacenter topologies used by the simulator: the
// k-pod FatTree fabrics from the paper's evaluation (k=8 → 128 servers / 80
// switches; k=48 → 27648 servers / 2880 switches) and a non-blocking
// big-switch fabric used for analysis-style experiments and fast tests.
//
// Links are directed so that congestion is modelled per direction, as on a
// real full-duplex fabric. Paths are resolved with ECMP: a deterministic
// hash of the flow identity picks one of the equal-cost paths, mirroring the
// ECMP load balancing the paper assumes.
package topo

import (
	"fmt"
	"math"
)

// ServerID identifies an end host (0..NumServers-1).
type ServerID int32

// LinkID identifies one directed link.
type LinkID int32

// Kind enumerates the supported fabric families.
type Kind int

// Supported topology kinds.
const (
	KindFatTree Kind = iota + 1
	KindBigSwitch
	KindLeafSpine
)

func (k Kind) String() string {
	switch k {
	case KindFatTree:
		return "fattree"
	case KindBigSwitch:
		return "bigswitch"
	case KindLeafSpine:
		return "leafspine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultLinkCapacity is 10 GbE expressed in bytes per second, matching the
// 10G switches used in the paper's evaluation.
const DefaultLinkCapacity = 1.25e9

// Topology is an immutable fabric description. It is safe for concurrent
// readers once built.
type Topology struct {
	kind     Kind
	k        int // FatTree pod count (0 otherwise)
	servers  int
	switches int
	links    int
	capacity float64

	// fabricCapacity is the capacity of switch-to-switch links; equal to
	// capacity on non-blocking fabrics, smaller on oversubscribed ones.
	fabricCapacity float64

	// Leaf-spine dimensions (KindLeafSpine only).
	leaves, spines, hostsPerLeaf int
}

// checkCapacity validates a construction-time link capacity: it must be a
// finite, strictly positive number of bytes/second, or exactly 0 to select
// the default. NaN, ±Inf, negative, and subnormal-tiny values are rejected
// with a descriptive error rather than silently producing a degenerate
// fabric (zero-capacity links would stall every flow forever).
func checkCapacity(name string, c float64) error {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("topo: %s must be a finite number of bytes/second, got %v", name, c)
	}
	if c < 0 {
		return fmt.Errorf("topo: %s must be positive (or 0 for the %g B/s default), got %v",
			name, float64(DefaultLinkCapacity), c)
	}
	if c > 0 && c < 1 {
		return fmt.Errorf("topo: %s of %v B/s is below 1 byte/second; pass 0 for the %g B/s default",
			name, c, float64(DefaultLinkCapacity))
	}
	return nil
}

// NewFatTree builds a k-pod FatTree with k^3/4 servers. k must be even and
// at least 2. capacity is the per-link capacity in bytes/second; pass 0 for
// DefaultLinkCapacity.
func NewFatTree(k int, capacity float64) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree pod count must be even and >= 2, got %d", k)
	}
	if err := checkCapacity("link capacity", capacity); err != nil {
		return nil, err
	}
	if capacity == 0 {
		capacity = DefaultLinkCapacity
	}
	h := k / 2
	servers := k * h * h
	switches := k*h /* edge */ + k*h /* agg */ + h*h /* core */
	// Directed links: server<->edge, edge<->agg, agg<->core; each tier has
	// exactly `servers` links per direction in a canonical fat-tree.
	links := 6 * servers
	return &Topology{
		kind:           KindFatTree,
		k:              k,
		servers:        servers,
		switches:       switches,
		links:          links,
		capacity:       capacity,
		fabricCapacity: capacity,
	}, nil
}

// NewFatTreeOversub builds a k-pod FatTree whose switch-to-switch links are
// oversubscribed by the given ratio: host links keep the full capacity, and
// every edge→agg and agg→core link carries capacity/ratio, as in production
// fabrics that taper upward (ratio 1 = the canonical non-blocking tree).
func NewFatTreeOversub(k int, capacity, ratio float64) (*Topology, error) {
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 1 {
		return nil, fmt.Errorf("topo: oversubscription ratio must be a finite number >= 1, got %v", ratio)
	}
	t, err := NewFatTree(k, capacity)
	if err != nil {
		return nil, err
	}
	t.fabricCapacity = t.capacity / ratio
	return t, nil
}

// NewLeafSpine builds a two-tier Clos fabric: `leaves` leaf (ToR) switches
// with hostsPerLeaf servers each, fully meshed to `spines` spine switches.
// hostCapacity is the server link speed (0 = 10 GbE); uplinkCapacity is the
// leaf↔spine link speed (0 = hostCapacity). Cross-leaf paths ECMP over the
// spines.
func NewLeafSpine(leaves, spines, hostsPerLeaf int, hostCapacity, uplinkCapacity float64) (*Topology, error) {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("topo: leaf-spine needs leaves, spines, hostsPerLeaf >= 1, got %d/%d/%d",
			leaves, spines, hostsPerLeaf)
	}
	if err := checkCapacity("host link capacity", hostCapacity); err != nil {
		return nil, err
	}
	if err := checkCapacity("uplink capacity", uplinkCapacity); err != nil {
		return nil, err
	}
	if hostCapacity == 0 {
		hostCapacity = DefaultLinkCapacity
	}
	if uplinkCapacity == 0 {
		uplinkCapacity = hostCapacity
	}
	servers := leaves * hostsPerLeaf
	return &Topology{
		kind:           KindLeafSpine,
		servers:        servers,
		switches:       leaves + spines,
		links:          2*servers + 2*leaves*spines,
		capacity:       hostCapacity,
		fabricCapacity: uplinkCapacity,
		leaves:         leaves,
		spines:         spines,
		hostsPerLeaf:   hostsPerLeaf,
	}, nil
}

// NewBigSwitch builds the non-blocking datacenter-fabric abstraction from
// the paper's analysis (§II): n servers joined by one ideal switch, so the
// only contention points are the per-server ingress and egress links.
func NewBigSwitch(n int, capacity float64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: big switch needs at least 1 server, got %d", n)
	}
	if err := checkCapacity("link capacity", capacity); err != nil {
		return nil, err
	}
	if capacity == 0 {
		capacity = DefaultLinkCapacity
	}
	return &Topology{
		kind:           KindBigSwitch,
		servers:        n,
		switches:       1,
		links:          2 * n,
		capacity:       capacity,
		fabricCapacity: capacity,
	}, nil
}

// Kind returns the fabric family.
func (t *Topology) Kind() Kind { return t.kind }

// K returns the FatTree pod count; it is 0 for a big switch.
func (t *Topology) K() int { return t.k }

// NumServers returns the number of end hosts.
func (t *Topology) NumServers() int { return t.servers }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return t.switches }

// NumLinks returns the number of directed links.
func (t *Topology) NumLinks() int { return t.links }

// LinkCapacity returns the capacity, in bytes/second, of link l: server
// links run at the host speed; switch-to-switch links run at the fabric
// speed (lower on oversubscribed fabrics).
func (t *Topology) LinkCapacity(l LinkID) float64 {
	if int(l) >= 2*t.servers {
		return t.fabricCapacity
	}
	return t.capacity
}

// Link ID layout for the FatTree (h = k/2, N = number of servers):
//
//	[0, N)        server -> edge   (uplink of server s)
//	[N, 2N)       edge   -> server (downlink to server s)
//	[2N, 3N)      edge   -> agg    (edgeIdx*h + a)
//	[3N, 4N)      agg    -> edge   (edgeIdx*h + a)
//	[4N, 5N)      agg    -> core   (aggIdx*h + i)
//	[5N, 6N)      core   -> agg    (aggIdx*h + i)
//
// and for the big switch:
//
//	[0, N)   server -> switch
//	[N, 2N)  switch -> server
//
// The arithmetic layout avoids adjacency maps entirely: path resolution on a
// 27k-server fabric allocates nothing beyond the returned slice.

// ServerUplink returns the server's ingress link into the fabric.
func (t *Topology) ServerUplink(s ServerID) LinkID { return LinkID(s) }

// ServerDownlink returns the fabric's egress link toward server s.
func (t *Topology) ServerDownlink(s ServerID) LinkID { return LinkID(int(s) + t.servers) }

// pod returns the pod number of server s.
func (t *Topology) pod(s ServerID) int {
	h := t.k / 2
	return int(s) / (h * h)
}

// edgeIdx returns the global edge-switch index (pod*h + e) of server s.
func (t *Topology) edgeIdx(s ServerID) int {
	h := t.k / 2
	return int(s) / h
}

// Path returns the directed links traversed by a flow from src to dst,
// picking among equal-cost paths with the supplied ECMP hash. The hash must
// be stable for a flow's lifetime (derive it from the flow's 5-tuple or ID)
// so the flow stays on one path. src == dst yields an empty path: a
// host-local transfer never touches the fabric.
//
// The returned slice is freshly allocated, with room for the fabric's
// longest path so it is allocated once; callers may retain it. Use
// AppendPath to reuse a buffer on hot paths.
func (t *Topology) Path(src, dst ServerID, hash uint64) []LinkID {
	if src == dst {
		return nil
	}
	return t.AppendPath(make([]LinkID, 0, t.maxPathLen()), src, dst, hash)
}

// maxPathLen is the number of links on the fabric's longest path: up and
// down through the big switch, via a spine across leaves, via a core switch
// across fat-tree pods.
func (t *Topology) maxPathLen() int {
	switch t.kind {
	case KindBigSwitch:
		return 2
	case KindLeafSpine:
		return 4
	default:
		return 6
	}
}

// AppendPath appends the path from src to dst to buf and returns it.
func (t *Topology) AppendPath(buf []LinkID, src, dst ServerID, hash uint64) []LinkID {
	if src == dst {
		return buf
	}
	if t.kind == KindBigSwitch {
		return append(buf, t.ServerUplink(src), t.ServerDownlink(dst))
	}
	if t.kind == KindLeafSpine {
		srcLeaf, dstLeaf := int(src)/t.hostsPerLeaf, int(dst)/t.hostsPerLeaf
		buf = append(buf, t.ServerUplink(src))
		if srcLeaf != dstLeaf {
			sp := int(hash % uint64(t.spines))
			up := 2*t.servers + srcLeaf*t.spines + sp
			down := 2*t.servers + t.leaves*t.spines + dstLeaf*t.spines + sp
			buf = append(buf, LinkID(up), LinkID(down))
		}
		return append(buf, t.ServerDownlink(dst))
	}
	h := t.k / 2
	n := t.servers
	se, de := t.edgeIdx(src), t.edgeIdx(dst)
	buf = append(buf, t.ServerUplink(src))
	if se != de {
		a := int(hash % uint64(h)) // aggregation switch choice within the pod
		sp, dp := t.pod(src), t.pod(dst)
		buf = append(buf, LinkID(2*n+se*h+a)) // edge -> agg (src pod)
		if sp != dp {
			i := int((hash / uint64(h)) % uint64(h)) // core choice within the agg's group
			srcAgg := sp*h + a
			dstAgg := dp*h + a
			buf = append(buf,
				LinkID(4*n+srcAgg*h+i), // agg -> core
				LinkID(5*n+dstAgg*h+i), // core -> agg (dst pod)
			)
		}
		buf = append(buf, LinkID(3*n+de*h+a)) // agg -> edge (dst pod)
	}
	return append(buf, t.ServerDownlink(dst))
}

// RackOf returns a rack identifier for server s: servers under the same edge
// switch share a rack (FatTree), or racks of equal size for the big switch.
func (t *Topology) RackOf(s ServerID) int {
	switch t.kind {
	case KindBigSwitch:
		const rackSize = 20 // conventional rack size used by the FB trace
		return int(s) / rackSize
	case KindLeafSpine:
		return int(s) / t.hostsPerLeaf
	default:
		return t.edgeIdx(s)
	}
}

// String implements fmt.Stringer.
func (t *Topology) String() string {
	switch t.kind {
	case KindFatTree:
		// Both are constructor inputs, never computed, so bitwise inequality
		// means "oversubscription configured at all".
		if t.fabricCapacity != t.capacity {
			return fmt.Sprintf("fattree(k=%d, %d servers, %d switches, %.2g:1 oversubscribed)",
				t.k, t.servers, t.switches, t.capacity/t.fabricCapacity)
		}
		return fmt.Sprintf("fattree(k=%d, %d servers, %d switches)", t.k, t.servers, t.switches)
	case KindLeafSpine:
		return fmt.Sprintf("leafspine(%d leaves, %d spines, %d servers)", t.leaves, t.spines, t.servers)
	default:
		return fmt.Sprintf("bigswitch(%d servers)", t.servers)
	}
}
