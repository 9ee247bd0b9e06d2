// Package faults provides a seeded, fully deterministic fault-injection
// model for the simulator: data-plane faults (link and switch failures, NIC
// degradation) and control-plane faults for the decentralized schedulers
// (dropped or delayed priority-refresh rounds, per-host stale queue views).
//
// A Schedule is a time-ordered list of events, either generated from a
// Profile (Poisson failure processes with exponential repair times, driven
// by a fixed seed) or loaded from JSON. The same Profile always generates
// the same Schedule, and the simulator replays a Schedule identically run
// after run — fault experiments are exactly as reproducible as fault-free
// ones.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"gurita/internal/topo"
)

// Kind enumerates fault event types.
type Kind int

// Fault event kinds. Down/Degrade events are paired with a later Up/Restore
// event by the generator; hand-written schedules may leave a fault in place
// forever (the simulator then reports permanently partitioned flows as an
// error rather than spinning).
const (
	// LinkDown fails one directed link: its capacity drops to zero, flows
	// crossing it are rerouted over surviving equal-cost paths or stalled.
	LinkDown Kind = iota + 1
	// LinkUp repairs a previously failed link.
	LinkUp
	// SwitchDown fails a switch: every link incident to it (both directions
	// of every attached cable) goes down at once.
	SwitchDown
	// SwitchUp repairs a previously failed switch.
	SwitchUp
	// NICDegrade multiplies the capacity of one host's uplink and downlink
	// by Factor in (0, 1] — a flapping transceiver or a throttled NIC.
	NICDegrade
	// NICRestore returns a degraded host NIC to full capacity.
	NICRestore
	// CtrlDropRounds makes a decentralized scheduler's aggregator silently
	// drop its next Count priority-refresh rounds: the round slot is
	// consumed, but every head receiver keeps serving its previous snapshot.
	CtrlDropRounds
	// CtrlDelay suspends a decentralized scheduler's refresh rounds for
	// Duration seconds after the event — a partitioned or GC-pausing
	// control plane. The first round at or after the deadline runs normally.
	CtrlDelay
	// CtrlStaleHost makes reports from one host invisible for Duration
	// seconds: coflows whose head receiver lives on Host keep their stale
	// observation while the rest of the fabric refreshes normally.
	CtrlStaleHost
)

var kindNames = map[Kind]string{
	LinkDown:       "link-down",
	LinkUp:         "link-up",
	SwitchDown:     "switch-down",
	SwitchUp:       "switch-up",
	NICDegrade:     "nic-degrade",
	NICRestore:     "nic-restore",
	CtrlDropRounds: "ctrl-drop-rounds",
	CtrlDelay:      "ctrl-delay",
	CtrlStaleHost:  "ctrl-stale-host",
}

// kindByName is the inverse of kindNames, for decoding. Names are unique,
// so building it in map order is safe.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = k
	}
	return m
}()

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its stable string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("faults: cannot marshal unknown kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kind, ok := kindByName[s]
	if !ok {
		return fmt.Errorf("faults: unknown event kind %q", s)
	}
	*k = kind
	return nil
}

// Event is one fault occurrence. Which fields are meaningful depends on
// Kind; Validate enforces the pairing against a concrete topology.
type Event struct {
	// Time is the simulated instant the fault fires, in seconds.
	Time float64 `json:"t"`
	Kind Kind    `json:"kind"`
	// Link names the failed/repaired link (LinkDown, LinkUp).
	Link topo.LinkID `json:"link,omitempty"`
	// Switch names the failed/repaired switch (SwitchDown, SwitchUp).
	Switch int `json:"switch,omitempty"`
	// Host names the affected server (NICDegrade/NICRestore/CtrlStaleHost).
	Host topo.ServerID `json:"host,omitempty"`
	// Factor is the capacity multiplier in (0, 1] for NICDegrade.
	Factor float64 `json:"factor,omitempty"`
	// Duration is the effect length in seconds (CtrlDelay, CtrlStaleHost).
	Duration float64 `json:"duration,omitempty"`
	// Count is the number of refresh rounds dropped (CtrlDropRounds).
	Count int `json:"count,omitempty"`
}

// Schedule is a time-ordered fault sequence. The zero value (or nil) is a
// perfect fabric.
type Schedule struct {
	Events []Event `json:"events"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Validate checks every event against the topology: times must be finite
// and non-decreasing, link/switch/host indices in range, factors in (0, 1],
// durations and counts positive. A valid schedule is safe for the simulator
// to replay without further checks.
func (s *Schedule) Validate(t *topo.Topology) error {
	if s == nil {
		return nil
	}
	prev := 0.0
	for i, ev := range s.Events {
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
			return fmt.Errorf("faults: event %d: time %v is not a finite non-negative instant", i, ev.Time)
		}
		if ev.Time < prev {
			return fmt.Errorf("faults: event %d (%v at t=%v) is out of order: previous event at t=%v",
				i, ev.Kind, ev.Time, prev)
		}
		prev = ev.Time
		switch ev.Kind {
		case LinkDown, LinkUp:
			if ev.Link < 0 || int(ev.Link) >= t.NumLinks() {
				return fmt.Errorf("faults: event %d: link %d out of range [0, %d)", i, ev.Link, t.NumLinks())
			}
		case SwitchDown, SwitchUp:
			if ev.Switch < 0 || ev.Switch >= t.NumSwitches() {
				return fmt.Errorf("faults: event %d: switch %d out of range [0, %d)", i, ev.Switch, t.NumSwitches())
			}
		case NICDegrade, NICRestore:
			if ev.Host < 0 || int(ev.Host) >= t.NumServers() {
				return fmt.Errorf("faults: event %d: host %d out of range [0, %d)", i, ev.Host, t.NumServers())
			}
			if ev.Kind == NICDegrade && !(ev.Factor > 0 && ev.Factor <= 1) {
				return fmt.Errorf("faults: event %d: NIC degrade factor must be in (0, 1], got %v", i, ev.Factor)
			}
		case CtrlDropRounds:
			if ev.Count < 1 {
				return fmt.Errorf("faults: event %d: drop-rounds count must be >= 1, got %d", i, ev.Count)
			}
		case CtrlDelay:
			if !(ev.Duration > 0) || math.IsInf(ev.Duration, 0) {
				return fmt.Errorf("faults: event %d: ctrl-delay duration must be finite and > 0, got %v", i, ev.Duration)
			}
		case CtrlStaleHost:
			if ev.Host < 0 || int(ev.Host) >= t.NumServers() {
				return fmt.Errorf("faults: event %d: host %d out of range [0, %d)", i, ev.Host, t.NumServers())
			}
			if !(ev.Duration > 0) || math.IsInf(ev.Duration, 0) {
				return fmt.Errorf("faults: event %d: stale-host duration must be finite and > 0, got %v", i, ev.Duration)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// WriteJSON writes the schedule as indented JSON.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON parses a schedule written by WriteJSON (or by hand). Events are
// sorted by time if needed; ties keep their file order, which is the order
// the simulator fires them in.
func ReadJSON(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parse schedule: %w", err)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Time < s.Events[j].Time })
	return &s, nil
}

// Profile describes fault processes statistically; Generate turns it into a
// concrete Schedule. All rates are events per simulated second over the
// whole fabric. A zero rate disables that fault class; the zero Profile
// generates an empty schedule.
type Profile struct {
	// Seed drives every random choice. The same seed (and topology and
	// rates) always yields the same schedule.
	Seed int64 `json:"seed"`
	// Horizon bounds fault arrival times to [0, Horizon) seconds. Repairs
	// may land past the horizon so nothing stays broken forever.
	Horizon float64 `json:"horizon"`
	// MTTR is the mean time to repair in seconds (exponential); it applies
	// to link, switch, and NIC faults. 0 selects 1 second.
	MTTR float64 `json:"mttr,omitempty"`

	// LinkFailRate fails uniformly random directed links.
	LinkFailRate float64 `json:"link_fail_rate,omitempty"`
	// SwitchFailRate fails uniformly random switches.
	SwitchFailRate float64 `json:"switch_fail_rate,omitempty"`
	// NICDegradeRate degrades uniformly random host NICs to DegradeFactor.
	NICDegradeRate float64 `json:"nic_degrade_rate,omitempty"`
	// DegradeFactor is the capacity multiplier for NIC degradation, in
	// (0, 1]. 0 selects 0.1.
	DegradeFactor float64 `json:"degrade_factor,omitempty"`

	// CtrlDropRate drops single priority-refresh rounds.
	CtrlDropRate float64 `json:"ctrl_drop_rate,omitempty"`
	// CtrlDelayRate suspends refresh rounds for an exponential duration
	// with mean CtrlDelayMean (0 selects 0.1 s).
	CtrlDelayRate float64 `json:"ctrl_delay_rate,omitempty"`
	CtrlDelayMean float64 `json:"ctrl_delay_mean,omitempty"`
	// StaleHostRate makes uniformly random hosts' reports stale for an
	// exponential duration with mean MTTR.
	StaleHostRate float64 `json:"stale_host_rate,omitempty"`
}

// Empty reports whether the profile enables no fault class.
func (p *Profile) Empty() bool {
	return p == nil || (p.LinkFailRate == 0 && p.SwitchFailRate == 0 && p.NICDegradeRate == 0 &&
		p.CtrlDropRate == 0 && p.CtrlDelayRate == 0 && p.StaleHostRate == 0)
}

// Normalized returns the profile with defaults filled in, the form that is
// hashed into campaign cache keys.
func (p Profile) Normalized() Profile {
	if p.MTTR == 0 {
		p.MTTR = 1
	}
	if p.DegradeFactor == 0 {
		p.DegradeFactor = 0.1
	}
	if p.CtrlDelayMean == 0 {
		p.CtrlDelayMean = 0.1
	}
	return p
}

// validate rejects profiles that would generate an invalid schedule.
func (p Profile) validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"link_fail_rate", p.LinkFailRate}, {"switch_fail_rate", p.SwitchFailRate},
		{"nic_degrade_rate", p.NICDegradeRate}, {"ctrl_drop_rate", p.CtrlDropRate},
		{"ctrl_delay_rate", p.CtrlDelayRate}, {"stale_host_rate", p.StaleHostRate},
	}
	for _, r := range rates {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) || r.v < 0 {
			return fmt.Errorf("faults: %s must be a finite non-negative rate, got %v", r.name, r.v)
		}
	}
	if !p.Empty() && !(p.Horizon > 0) {
		return fmt.Errorf("faults: profile needs a positive horizon, got %v", p.Horizon)
	}
	if p.MTTR < 0 || math.IsNaN(p.MTTR) || math.IsInf(p.MTTR, 0) {
		return fmt.Errorf("faults: mttr must be finite and >= 0, got %v", p.MTTR)
	}
	if p.DegradeFactor != 0 && !(p.DegradeFactor > 0 && p.DegradeFactor <= 1) {
		return fmt.Errorf("faults: degrade_factor must be in (0, 1], got %v", p.DegradeFactor)
	}
	return nil
}

// Sub-stream salts: each fault class draws from its own PRNG seeded with
// Seed XOR its salt, so enabling one class never perturbs another class's
// event times — sweeps stay comparable across profiles.
const (
	saltLink   = 0x6c696e6b // "link"
	saltSwitch = 0x73776368 // "swch"
	saltNIC    = 0x6e696364 // "nicd"
	saltDrop   = 0x64726f70 // "drop"
	saltDelay  = 0x646c6179 // "dlay"
	saltStale  = 0x7374616c // "stal"
)

// Generate builds the concrete fault schedule for one topology. Every fault
// class is an independent Poisson process: inter-arrival times are
// exponential with the class rate, victims are uniform over the class's
// population, and each data-plane fault schedules its own repair an
// exponential MTTR later. Events are sorted by time (stable, so same-time
// events keep generation order).
func (p Profile) Generate(t *topo.Topology) (*Schedule, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.Normalized()
	s := &Schedule{}
	if p.Empty() {
		return s, nil
	}

	poisson := func(salt int64, rate float64, emit func(r *rand.Rand, at float64)) {
		if rate <= 0 {
			return
		}
		r := rand.New(rand.NewSource(p.Seed ^ salt))
		for at := r.ExpFloat64() / rate; at < p.Horizon; at += r.ExpFloat64() / rate {
			emit(r, at)
		}
	}

	poisson(saltLink, p.LinkFailRate, func(r *rand.Rand, at float64) {
		l := topo.LinkID(r.Intn(t.NumLinks()))
		s.Events = append(s.Events,
			Event{Time: at, Kind: LinkDown, Link: l},
			Event{Time: at + float64(r.ExpFloat64()*p.MTTR), Kind: LinkUp, Link: l})
	})
	poisson(saltSwitch, p.SwitchFailRate, func(r *rand.Rand, at float64) {
		sw := r.Intn(t.NumSwitches())
		s.Events = append(s.Events,
			Event{Time: at, Kind: SwitchDown, Switch: sw},
			Event{Time: at + float64(r.ExpFloat64()*p.MTTR), Kind: SwitchUp, Switch: sw})
	})
	poisson(saltNIC, p.NICDegradeRate, func(r *rand.Rand, at float64) {
		h := topo.ServerID(r.Intn(t.NumServers()))
		s.Events = append(s.Events,
			Event{Time: at, Kind: NICDegrade, Host: h, Factor: p.DegradeFactor},
			Event{Time: at + float64(r.ExpFloat64()*p.MTTR), Kind: NICRestore, Host: h})
	})
	poisson(saltDrop, p.CtrlDropRate, func(r *rand.Rand, at float64) {
		s.Events = append(s.Events, Event{Time: at, Kind: CtrlDropRounds, Count: 1})
	})
	poisson(saltDelay, p.CtrlDelayRate, func(r *rand.Rand, at float64) {
		s.Events = append(s.Events,
			Event{Time: at, Kind: CtrlDelay, Duration: r.ExpFloat64() * p.CtrlDelayMean})
	})
	poisson(saltStale, p.StaleHostRate, func(r *rand.Rand, at float64) {
		s.Events = append(s.Events,
			Event{Time: at, Kind: CtrlStaleHost, Host: topo.ServerID(r.Intn(t.NumServers())), Duration: r.ExpFloat64() * p.MTTR})
	})

	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Time < s.Events[j].Time })
	return s, nil
}
