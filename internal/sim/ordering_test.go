package sim_test

// Event-order digests: the exact trajectory of small runs that put many
// kinds of event on the same instant, pinned as SHA-256 digests. The
// engine's loop may change how it finds the next event (a queue entry, the
// next completion, the δ tick) but never which events fire at an instant,
// how many there are (Result.Events is in the result bytes), or what they
// leave behind.
//
// Each digest hashes the obs event and decision stream, every Probe call
// (time, then each active flow's ID and rate bits, in active-set order)
// and the result document with per-coflow rows.
//
// To re-pin after an intended trajectory change, run
//
//	go test -run 'TestEventOrderDigests|TestSameInstant' -v ./internal/sim/ 2>&1 | grep 'golden:'
//
// and paste the printed lines over the table.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/core"
	"gurita/internal/faults"
	"gurita/internal/metrics"
	"gurita/internal/netmod"
	"gurita/internal/obs"
	"gurita/internal/sched"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

var eventOrderGoldens = map[string]string{
	"pfs/all":      "d99bd5696c345abd1e734eb6a2fd39f8658c1364fc0a452f8808e93ebfa9aa0f",
	"baraat/all":   "15b9d41296c3d34ed20a05b570ae9615ad8a44a033e32ce48230839bfefc70c8",
	"stream/all":   "4db49b32928d7c8ec75f3b62e3cbfe1bf2d507afa314b81dab2e003776c8c1ac",
	"aalo/all":     "59073deee1395ece819f20b0d82a0b0d30576250b334285913a17de375706960",
	"gurita/all":   "7cbf951e06d9491f870b65d8a7bf72691ac4d2227a7bb0a57dcfc568c1239d61",
	"gurita+/all":  "a330ec8d3027b2edf2963ace0b984e01d46ea2001c727cb5485ec111ce0e50bb",
	"varys/all":    "dd9de46e26d4a736d7dc08fc03a668ca591d45eabcf730793f48ee1113172f47",
	"mcs/all":      "0646e94a8fedc83187bc1a117f4662ab448cdc677c9170b0802e187acf999828",
	"same-instant": "bda646ec3be84785279ceb5bd7fae97874b5125a0b6be4afa6c953b5823c8988",
}

// eventLog streams every obs record into the digest and keeps the events
// so a test can check that its scenario still covers what it claims to.
type eventLog struct {
	*obs.JSONL
	events []obs.Event
}

func (l *eventLog) Event(e obs.Event) {
	l.events = append(l.events, e)
	l.JSONL.Event(e)
}

// digestRun runs one scenario with an obs stream and a Probe armed and
// returns the digest of everything it recorded, the result, and the events.
func digestRun(t *testing.T, cfg sim.Config, s sim.Scheduler, jobs []*coflow.Job) (string, *sim.Result, []obs.Event) {
	t.Helper()
	h := sha256.New()
	log := &eventLog{JSONL: obs.NewJSONL(h)}
	cfg.Obs = log
	cfg.Probe = func(now float64, active []*sim.FlowState) {
		putFloat(h, now)
		for _, f := range active {
			_ = binary.Write(h, binary.LittleEndian, int64(f.Flow.ID))
			putFloat(h, f.Demand.Rate)
		}
	}
	sm, err := sim.New(cfg, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteResultJSON(h, res, true); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), res, log.events
}

func putFloat(h hash.Hash, v float64) {
	_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
}

// orderingPolicies is every built-in policy on its own data plane: Gurita
// and Gurita+ on WRR, the compared schemes on SPQ.
var orderingPolicies = []struct {
	name  string
	mode  netmod.Mode
	build func() (sim.Scheduler, error)
}{
	{"pfs", netmod.ModeSPQ, func() (sim.Scheduler, error) { return sched.NewPFS(), nil }},
	{"baraat", netmod.ModeSPQ, func() (sim.Scheduler, error) { return sched.NewBaraat(sched.BaraatConfig{}), nil }},
	{"stream", netmod.ModeSPQ, func() (sim.Scheduler, error) { return sched.NewStream(sched.StreamConfig{}, 4) }},
	{"aalo", netmod.ModeSPQ, func() (sim.Scheduler, error) { return sched.NewAalo(sched.AaloConfig{}, 4) }},
	{"gurita", netmod.ModeWRR, func() (sim.Scheduler, error) { return core.New(core.Config{}, 4) }},
	{"gurita+", netmod.ModeWRR, func() (sim.Scheduler, error) { return core.NewPlus(core.Config{}, 4) }},
	{"varys", netmod.ModeSPQ, func() (sim.Scheduler, error) { return sched.NewVarys(), nil }},
	{"mcs", netmod.ModeSPQ, func() (sim.Scheduler, error) { return sched.NewMCS(sched.MCSConfig{}, 4) }},
}

// TestEventOrderDigests pins every policy's trajectory on FatTree(4) with
// engine-scheduled events of every kind but one armed at once: StageDelay
// coflow releases and task-level (DepTask) flow starts, the δ tick, Probe,
// and an all-classes fault schedule whose partitions outlast the first
// retry backoff, so retry timers fire and repairs readmit stalled flows.
// TCP slow start is left to TestSameInstantTickCompletionArrivalRepair: its
// cap is InitWindow/RTT·2^(age/RTT), and for a fractional exponent
// math.Pow goes through math.Exp, whose last bit depends on the CPU's FMA
// path, so these digests would not hold on every host.
func TestEventOrderDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("8 faulted simulations")
	}
	tp, err := topo.NewFatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range orderingPolicies {
		seed := int64(i + 1)
		schedule, err := orderingProfile(seed).Generate(tp)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.build()
		if err != nil {
			t.Fatal(err)
		}
		got, res, events := digestRun(t, sim.Config{
			Topology:        tp,
			Mode:            p.mode,
			Tick:            0.01,
			StageDelay:      0.003,
			Dependency:      sim.DepTask,
			Faults:          schedule,
			CheckInvariants: true,
		}, s, chaosWorkload(t, tp, seed))
		key := p.name + "/all"
		if want, ok := eventOrderGoldens[key]; !ok || got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
			t.Logf("golden: %q: %q,", key, got)
		}
		checkOrderingCoverage(t, key, res, events, len(schedule.Events))
	}
	if want := len(orderingPolicies) + 1; len(eventOrderGoldens) != want {
		t.Errorf("golden table has %d entries, want %d", len(eventOrderGoldens), want)
	}
}

// orderingProfile is chaosProfile over a 5 s horizon with failures dense
// enough that every policy's run sees partitions outlast a retry backoff.
func orderingProfile(seed int64) faults.Profile {
	p := chaosProfile(seed)
	p.Horizon = 5
	p.LinkFailRate = 8
	p.SwitchFailRate = 2
	return p
}

// checkOrderingCoverage fails when a pinned run no longer exercises the
// event sources its digest is meant to pin.
func checkOrderingCoverage(t *testing.T, key string, res *sim.Result, events []obs.Event, faultEvents int) {
	t.Helper()
	c := res.Counters
	if c["faults_fired"] != int64(faultEvents) || c["flow_stalls"] == 0 || c["flow_readmits"] == 0 {
		t.Errorf("%s: faults fired %d of %d, stalls %d, readmits %d: want every fault fired and stalls readmitted",
			key, c["faults_fired"], faultEvents, c["flow_stalls"], c["flow_readmits"])
	}
	// A partition that outlasts the first backoff (50 ms) has fired at
	// least one retry timer: the timer is canceled only by readmission.
	stalledAt := map[int64]float64{}
	retried := false
	for _, e := range events {
		switch e.Kind {
		case obs.KindStall:
			stalledAt[e.Flow] = e.T
		case obs.KindReadmit:
			if e.T-stalledAt[e.Flow] > 0.05 {
				retried = true
			}
		}
	}
	if !retried {
		t.Errorf("%s: no partition outlasted the first retry backoff", key)
	}
}

// TestSameInstantTickCompletionArrivalRepair pins one hand-built instant,
// t = 1, where a δ tick, a flow completion, a job arrival and a link repair
// (readmitting a flow stalled since birth) all land bit-equal, and a later
// one, t = 1.125, where a StageDelay release lands on a tick that finds no
// flow active. TCP slow start ramps every new flow over three RTT wake-ups
// (c/8, c/4, c/2, then c). Every size and time is a dyadic rational, and
// every flow starts and every slow-start cap is taken at a whole number of
// RTTs, so the caps are exact powers of two and the coincidences are exact
// in float64.
func TestSameInstantTickCompletionArrivalRepair(t *testing.T) {
	const c = 1 << 30 // bytes/s
	tp, err := topo.NewBigSwitch(4, c)
	if err != nil {
		t.Fatal(err)
	}
	var cid coflow.CoflowID
	var fid coflow.FlowID
	build := func(b *coflow.Builder) *coflow.Job {
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Job 1 arrives at 0.875 and arms the first tick for t = 1; its first
	// stage sends 7c/512 bytes while it ramps over three RTTs (3/64 s) and
	// the other 40c/512 at rate c in 5/64 s, draining exactly at 1. Its
	// second stage is released 0.125 s later.
	b1 := coflow.NewBuilder(1, 0.875, &cid, &fid)
	s1 := b1.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 47 * c / 512})
	s2 := b1.AddCoflow(coflow.FlowSpec{Src: 1, Dst: 0, Size: c / 8})
	b1.Depends(s2, s1)
	// Job 2 arrives at the instant itself.
	b2 := coflow.NewBuilder(2, 1, &cid, &fid)
	b2.AddCoflow(coflow.FlowSpec{Src: 2, Dst: 3, Size: c / 16})
	// Job 3's only uplink is down from t = 0 until the repair at t = 1, so
	// its flow stalls at birth and retries on backoff until then.
	b3 := coflow.NewBuilder(3, 0, &cid, &fid)
	b3.AddCoflow(coflow.FlowSpec{Src: 3, Dst: 2, Size: c / 16})
	jobs := []*coflow.Job{build(b1), build(b2), build(b3)}
	up3 := tp.ServerUplink(3)
	schedule := &faults.Schedule{Events: []faults.Event{
		{Time: 0, Kind: faults.LinkDown, Link: up3},
		{Time: 1, Kind: faults.LinkUp, Link: up3},
	}}

	got, res, events := digestRun(t, sim.Config{
		Topology:        tp,
		Tick:            0.125,
		StageDelay:      0.125,
		TCPSlowStart:    true,
		RTT:             1.0 / 64,
		InitWindow:      c / 512, // a first cap of c/8
		Faults:          schedule,
		CheckInvariants: true,
	}, sched.NewPFS(), jobs)

	// The scenario must still put its events where it says.
	at := map[obs.Kind][]float64{}
	for _, e := range events {
		at[e.Kind] = append(at[e.Kind], e.T)
	}
	has := func(k obs.Kind, want float64) bool {
		for _, v := range at[k] {
			if math.Float64bits(v) == math.Float64bits(want) {
				return true
			}
		}
		return false
	}
	for _, w := range []struct {
		kind obs.Kind
		t    float64
	}{
		{obs.KindFault, 1}, {obs.KindJobArrival, 1}, {obs.KindFlowFinish, 1},
		{obs.KindReadmit, 1}, {obs.KindStageRelease, 1.125},
	} {
		if !has(w.kind, w.t) {
			t.Errorf("no %v event at t=%v; got %v", w.kind, w.t, at[w.kind])
		}
	}
	// Ticks and completion wake-ups leave no obs record; the event count
	// is what pins them.
	const wantEvents = 27
	if res.Events != wantEvents {
		t.Errorf("Events = %d, want %d", res.Events, wantEvents)
	}
	const key = "same-instant"
	if want, ok := eventOrderGoldens[key]; !ok || got != want {
		t.Errorf("%s: digest %s, want %s", key, got, want)
		t.Logf("golden: %q: %q,", key, got)
	}
}
