package sched

import (
	"math"
	"sort"
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

func TestExpThresholds(t *testing.T) {
	th, err := ExpThresholds(10e6, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10e6, 100e6, 1000e6}
	if len(th) != len(want) {
		t.Fatalf("len = %d, want %d", len(th), len(want))
	}
	for i := range want {
		if math.Abs(th[i]-want[i]) > 1 {
			t.Fatalf("th[%d] = %v, want %v", i, th[i], want[i])
		}
	}
	if th, err := ExpThresholds(10e6, 10, 1); err != nil || len(th) != 0 {
		t.Fatalf("single queue: th=%v err=%v, want empty, nil", th, err)
	}
}

func TestExpThresholdsValidation(t *testing.T) {
	if _, err := ExpThresholds(0, 10, 4); err == nil {
		t.Error("zero base should fail")
	}
	if _, err := ExpThresholds(10, 1, 4); err == nil {
		t.Error("factor <= 1 should fail")
	}
	if _, err := ExpThresholds(10, 10, 0); err == nil {
		t.Error("zero queues should fail")
	}
}

func TestQueueFor(t *testing.T) {
	th := []float64{10, 100, 1000}
	tests := []struct {
		bytes float64
		want  int
	}{
		{0, 0}, {5, 0}, {10, 0}, {11, 1}, {100, 1}, {500, 2}, {1000, 2}, {5000, 3},
	}
	for _, tt := range tests {
		if got := QueueFor(tt.bytes, th); got != tt.want {
			t.Errorf("QueueFor(%v) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
	if got := QueueFor(42, nil); got != 0 {
		t.Errorf("QueueFor with no thresholds = %d, want 0", got)
	}
}

// TestQueueForMatchesBinarySearch: the linear scan agrees with
// sort.SearchFloat64s for 1–8 queues on every threshold, one ulp either
// side of it, and the edge values 0, negatives, NaN and ±Inf.
func TestQueueForMatchesBinarySearch(t *testing.T) {
	for queues := 1; queues <= 8; queues++ {
		th, err := ExpThresholds(DefaultBaseThreshold, DefaultThresholdFactor, queues)
		if err != nil {
			t.Fatal(err)
		}
		vals := []float64{0, math.Copysign(0, -1), -1, -1e18, math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, v := range th {
			vals = append(vals, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
		}
		for _, v := range vals {
			if got, want := QueueFor(v, th), sort.SearchFloat64s(th, v); got != want {
				t.Errorf("%d queues: QueueFor(%v) = %d, sort.SearchFloat64s gives %d", queues, v, got, want)
			}
		}
	}
}

// --- end-to-end behavioural tests over the simulator ---

func bigSwitch(t *testing.T, n int, cap float64) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBigSwitch(n, cap)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// job builds a single-coflow job with IDs derived from the job ID, keeping
// separately built jobs unique within one workload.
func job(t *testing.T, id coflow.JobID, arrival float64, specs ...coflow.FlowSpec) *coflow.Job {
	t.Helper()
	cid := coflow.CoflowID(id * 1000)
	fid := coflow.FlowID(id * 1000)
	b := coflow.NewBuilder(id, arrival, &cid, &fid)
	b.AddCoflow(specs...)
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func runSim(t *testing.T, tp *topo.Topology, s sim.Scheduler, jobs []*coflow.Job) *sim.Result {
	t.Helper()
	simulator, err := sim.New(sim.Config{Topology: tp, Tick: 0.01}, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func jctOf(t *testing.T, res *sim.Result, id coflow.JobID) float64 {
	t.Helper()
	for _, j := range res.Jobs {
		if j.JobID == id {
			return j.JCT
		}
	}
	t.Fatalf("job %d not in results", id)
	return 0
}

func TestPFSSharesEqually(t *testing.T) {
	tp := bigSwitch(t, 3, 100)
	j1 := job(t, 1, 0, coflow.FlowSpec{Src: 0, Dst: 1, Size: 500})
	j2 := job(t, 2, 0, coflow.FlowSpec{Src: 0, Dst: 2, Size: 500})
	res := runSim(t, tp, NewPFS(), []*coflow.Job{j1, j2})
	if res.Scheduler != "pfs" {
		t.Fatalf("name = %q", res.Scheduler)
	}
	if math.Abs(jctOf(t, res, 1)-10) > 1e-6 || math.Abs(jctOf(t, res, 2)-10) > 1e-6 {
		t.Fatal("PFS should fair-share: both JCTs 10")
	}
}

// TestBaraatFIFOOrder: under Baraat the earlier job owns the fabric; the
// later job waits (SJF does not apply — arrival order does).
func TestBaraatFIFOOrder(t *testing.T) {
	tp := bigSwitch(t, 3, 100)
	// Same source: shared uplink. Job 1 arrives first but is LARGER.
	j1 := job(t, 1, 0, coflow.FlowSpec{Src: 0, Dst: 1, Size: 1000})
	j2 := job(t, 2, 0.001, coflow.FlowSpec{Src: 0, Dst: 2, Size: 200})
	res := runSim(t, tp, NewBaraat(BaraatConfig{}), []*coflow.Job{j1, j2})
	// Job 1 finishes at ~10 s (full rate); job 2 only then gets the link.
	if got := jctOf(t, res, 1); math.Abs(got-10) > 0.1 {
		t.Fatalf("job1 JCT = %v, want ~10 (head of FIFO)", got)
	}
	if got := jctOf(t, res, 2); got < 10 {
		t.Fatalf("job2 JCT = %v, want >= 10 (queued behind job1)", got)
	}
}

// TestBaraatHeavyJobDemoted: an elephant beyond the heavy threshold is
// demoted so a later mouse can pass it.
func TestBaraatHeavyJobDemoted(t *testing.T) {
	tp := bigSwitch(t, 3, 1e6)
	// Elephant: 10 MB (over the 1 MB configured threshold). Mouse: 10 KB.
	j1 := job(t, 1, 0, coflow.FlowSpec{Src: 0, Dst: 1, Size: 10e6})
	j2 := job(t, 2, 0.5, coflow.FlowSpec{Src: 0, Dst: 2, Size: 10e3})
	cfg := BaraatConfig{InitialHeavyThreshold: 1e6}
	res := runSim(t, tp, NewBaraat(cfg), []*coflow.Job{j1, j2})
	// The mouse passes the demoted elephant: finishes in ~0.01 s, far less
	// than waiting for the elephant (~10 s).
	if got := jctOf(t, res, 2); got > 1 {
		t.Fatalf("mouse JCT = %v, want << 1 (elephant demoted)", got)
	}
}

// TestStreamDemotesByTBS: Stream demotes a job by job-level TBS: having
// shipped lots of bytes in stage 1, its stage-2 coflow is stuck at low
// priority even though stage 2 is tiny — the paper's critique.
func TestStreamDemotesByTBS(t *testing.T) {
	tp := bigSwitch(t, 6, 1e6)
	// Multi-stage job: big stage 1 (50 MB, alone), tiny stage 2 that
	// contends with a fresh small job.
	cid := coflow.CoflowID(1000)
	fid := coflow.FlowID(1000)
	b := coflow.NewBuilder(1, 0, &cid, &fid)
	c1 := b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 50e6})
	c2 := b.AddCoflow(coflow.FlowSpec{Src: 2, Dst: 3, Size: 100e3})
	b.Depends(c2, c1)
	j1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Fresh job contending with stage 2 on the same uplink, arriving at
	// about the time stage 2 starts (50 s).
	j2 := job(t, 2, 50, coflow.FlowSpec{Src: 2, Dst: 4, Size: 100e3})

	st, err := NewStream(StreamConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := runSim(t, tp, st, []*coflow.Job{j1, j2})
	// The fresh job should beat the demoted job's stage 2 on the shared
	// uplink: j2's JCT well under j1's stage-2 duration.
	j1JCT := jctOf(t, res, 1)
	j2JCT := jctOf(t, res, 2)
	if j1JCT <= 50 {
		t.Fatalf("j1 JCT = %v, want > 50 (two stages)", j1JCT)
	}
	stage2End := j1JCT // j1 finishes when stage 2 does
	_ = stage2End
	if j2JCT >= 0.25 {
		t.Fatalf("fresh job JCT = %v, want < 0.25 (TBS-demoted job must not block it)", j2JCT)
	}
}

// TestAaloPerCoflowReset: Aalo keys on per-coflow bytes, so a stage-2
// coflow starts back at the highest priority regardless of stage-1 volume.
func TestAaloPerCoflowReset(t *testing.T) {
	tp := bigSwitch(t, 6, 1e6)
	cid := coflow.CoflowID(1000)
	fid := coflow.FlowID(1000)
	b := coflow.NewBuilder(1, 0, &cid, &fid)
	c1 := b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 50e6})
	c2 := b.AddCoflow(coflow.FlowSpec{Src: 2, Dst: 3, Size: 100e3})
	b.Depends(c2, c1)
	j1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A competing elephant coflow on the same uplink as stage 2, started
	// well before and still running (already demoted by its bytes).
	j2 := job(t, 2, 0, coflow.FlowSpec{Src: 2, Dst: 4, Size: 100e6})

	al, err := NewAalo(AaloConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := runSim(t, tp, al, []*coflow.Job{j1, j2})
	// Stage 2 (fresh coflow, highest priority) must not be blocked by the
	// demoted elephant: j1 finishes just after stage 1 + stage 2 line-rate.
	j1JCT := jctOf(t, res, 1)
	if j1JCT > 51 {
		t.Fatalf("j1 JCT = %v, want ~50.1 (stage-2 coflow resets priority under Aalo)", j1JCT)
	}
}

// TestSchedulersCompleteRandomWorkload: all four baselines drain the same
// DAG workload completely and deterministically.
func TestSchedulersCompleteRandomWorkload(t *testing.T) {
	tp := bigSwitch(t, 16, 1e6)
	mk := func() []*coflow.Job {
		var cid coflow.CoflowID
		var fid coflow.FlowID
		var jobs []*coflow.Job
		for i := 0; i < 20; i++ {
			b := coflow.NewBuilder(coflow.JobID(i), float64(i)*0.05, &cid, &fid)
			prev := -1
			for st := 0; st < 1+i%3; st++ {
				h := b.AddCoflow(
					coflow.FlowSpec{Src: topo.ServerID(i % 16), Dst: topo.ServerID((i + st + 1) % 16), Size: int64(10e3 + 1e3*i)},
					coflow.FlowSpec{Src: topo.ServerID((i + 5) % 16), Dst: topo.ServerID((i + st + 9) % 16), Size: int64(20e3 + 2e3*i)},
				)
				if prev >= 0 {
					b.Depends(h, prev)
				}
				prev = h
			}
			j, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	mkScheds := func() []sim.Scheduler {
		st, err := NewStream(StreamConfig{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		al, err := NewAalo(AaloConfig{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return []sim.Scheduler{NewPFS(), NewBaraat(BaraatConfig{}), st, al}
	}
	for i, s := range mkScheds() {
		res := runSim(t, tp, s, mk())
		if len(res.Jobs) != 20 {
			t.Fatalf("scheduler %s completed %d/20 jobs", s.Name(), len(res.Jobs))
		}
		// Determinism: a second run with a fresh scheduler instance matches.
		res2 := runSim(t, tp, mkScheds()[i], mk())
		for k := range res.Jobs {
			if res.Jobs[k] != res2.Jobs[k] {
				t.Fatalf("scheduler %s nondeterministic at job %d", s.Name(), k)
			}
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewStream(StreamConfig{BaseThreshold: -1}, 4); err == nil {
		t.Error("negative base threshold should fail")
	}
	if _, err := NewAalo(AaloConfig{ThresholdFactor: 0.5}, 4); err == nil {
		t.Error("factor <= 1 should fail")
	}
}
