package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file exports recorded event streams as Chrome trace_event JSON (the
// "JSON Array Format" with a traceEvents envelope), loadable in
// chrome://tracing and Perfetto. The mapping:
//
//   - one trace *process* per scheduling policy (TraceProcess), named after
//     it, so multi-policy comparisons load side by side in one UI;
//   - one *thread* (track) per job, named "job <id>", plus track 0
//     ("fabric") for fabric-wide events;
//   - each coflow is a complete-event span ("ph":"X") on its job's track,
//     from first flow admission to coflow completion, named
//     "coflow <id> (stage <s>)";
//   - each stage release (DAG boundary) is a thread-scoped instant
//     ("ph":"i", "s":"t") on the job's track;
//   - faults, stalls and readmits are process-scoped instants on the fabric
//     track; priority changes are instants on the job track carrying the
//     new queue in args.
//
// Timestamps are virtual simulation time converted to microseconds (the
// trace_event unit); the export is a pure function of the event sequence.

// TraceProcess is one policy's recorded trajectory, exported as one trace
// process.
type TraceProcess struct {
	// Name labels the process in the UI (usually the scheduler name).
	Name string
	// PID is the process id; use distinct small integers per process.
	PID int
	// Events is the policy's recorded event stream, in record order.
	Events []Event
}

// traceEvent is one trace_event entry. Field order (and json's sorted map
// keys for args) make the encoding deterministic.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the on-disk envelope.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// fabricTID is the per-process track carrying fabric-wide events (faults,
// reallocation markers). Job tracks use tid = job ID + 1.
const fabricTID = 0

func jobTID(job int64) int64 { return job + 1 }

const usec = 1e6 // seconds → trace_event microseconds

// WriteChromeTrace renders the given processes as one Chrome trace_event
// JSON document. Events within a process may arrive in any order; the
// output is sorted (ts, pid, tid, name) after metadata, so identical
// recordings export byte-identically.
func WriteChromeTrace(w io.Writer, procs ...TraceProcess) error {
	var out []traceEvent
	for _, p := range procs {
		out = append(out, exportProcess(p)...)
	}
	// Metadata first (ph "M", by pid then tid), then payload by time.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if am {
			if a.PID != b.PID {
				return a.PID < b.PID
			}
			if a.TID != b.TID {
				return a.TID < b.TID
			}
			return a.Name < b.Name
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceDoc{DisplayTimeUnit: "ms", TraceEvents: out}); err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	return nil
}

// exportProcess converts one policy's event stream.
func exportProcess(p TraceProcess) []traceEvent {
	var out []traceEvent
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", PID: p.PID, TID: fabricTID,
		Args: map[string]any{"name": p.Name},
	})

	// Track bookkeeping: named job tracks plus the fabric track, and open
	// coflow spans keyed by coflow ID.
	jobSeen := map[int64]bool{}
	var jobOrder []int64
	noteJob := func(j int64) {
		if !jobSeen[j] {
			jobSeen[j] = true
			jobOrder = append(jobOrder, j)
		}
	}
	type open struct {
		t     float64
		job   int64
		stage int32
	}
	started := map[int64]open{}
	var startOrder []int64
	maxT := 0.0

	for _, e := range p.Events {
		if e.T > maxT {
			maxT = e.T
		}
		switch e.Kind {
		case KindJobArrival, KindStageRelease, KindCoflowStart, KindCoflowFinish,
			KindJobFinish, KindPriorityChange, KindStall, KindReadmit:
			noteJob(e.Job)
		}
		switch e.Kind {
		case KindCoflowStart:
			if _, ok := started[e.Coflow]; !ok {
				started[e.Coflow] = open{t: e.T, job: e.Job, stage: e.Stage}
				startOrder = append(startOrder, e.Coflow)
			}
		case KindCoflowFinish:
			if s, ok := started[e.Coflow]; ok {
				out = append(out, coflowSpan(p.PID, e.Coflow, s, e.T))
				delete(started, e.Coflow)
			}
		case KindStageRelease:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("stage release: coflow %d (stage %d)", e.Coflow, e.Stage),
				Ph:   "i", S: "t", Cat: "stage",
				TS: e.T * usec, PID: p.PID, TID: jobTID(e.Job),
				Args: map[string]any{"coflow": e.Coflow, "stage": e.Stage},
			})
		case KindJobArrival:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("job %d arrival", e.Job),
				Ph:   "i", S: "t", Cat: "job",
				TS: e.T * usec, PID: p.PID, TID: jobTID(e.Job),
			})
		case KindJobFinish:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("job %d complete", e.Job),
				Ph:   "i", S: "t", Cat: "job",
				TS: e.T * usec, PID: p.PID, TID: jobTID(e.Job),
				Args: map[string]any{"jct": e.Val},
			})
		case KindPriorityChange:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("flow %d → q%d", e.Flow, e.Queue),
				Ph:   "i", S: "t", Cat: "priority",
				TS: e.T * usec, PID: p.PID, TID: jobTID(e.Job),
				Args: map[string]any{"flow": e.Flow, "queue": e.Queue, "coflow": e.Coflow},
			})
		case KindFault:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("fault (kind %d)", e.Arg),
				Ph:   "i", S: "p", Cat: "fault",
				TS: e.T * usec, PID: p.PID, TID: fabricTID,
				Args: map[string]any{"kind": e.Arg, "val": e.Val},
			})
		case KindStall:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("flow %d stalled", e.Flow),
				Ph:   "i", S: "p", Cat: "fault",
				TS: e.T * usec, PID: p.PID, TID: fabricTID,
				Args: map[string]any{"flow": e.Flow, "coflow": e.Coflow},
			})
		case KindReadmit:
			out = append(out, traceEvent{
				Name: fmt.Sprintf("flow %d readmitted", e.Flow),
				Ph:   "i", S: "p", Cat: "fault",
				TS: e.T * usec, PID: p.PID, TID: fabricTID,
				Args: map[string]any{"flow": e.Flow, "coflow": e.Coflow},
			})
		case KindInvariant:
			out = append(out, traceEvent{
				Name: "invariant violation",
				Ph:   "i", S: "p", Cat: "invariant",
				TS: e.T * usec, PID: p.PID, TID: fabricTID,
			})
		}
	}

	// Coflows still open at the end of the recording (interrupted run, ring
	// eviction of the finish) close at the last observed instant.
	for _, id := range startOrder {
		if s, ok := started[id]; ok {
			out = append(out, coflowSpan(p.PID, id, s, maxT))
		}
	}

	// Named tracks: the fabric track plus one per job, in first-seen order
	// (metadata sorting puts them in tid order for the UI regardless).
	out = append(out, traceEvent{
		Name: "thread_name", Ph: "M", PID: p.PID, TID: fabricTID,
		Args: map[string]any{"name": "fabric"},
	})
	for _, j := range jobOrder {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", PID: p.PID, TID: jobTID(j),
			Args: map[string]any{"name": fmt.Sprintf("job %d", j)},
		})
	}
	return out
}

func coflowSpan(pid int, id int64, s struct {
	t     float64
	job   int64
	stage int32
}, end float64) traceEvent {
	dur := (end - s.t) * usec
	if dur < 0 {
		dur = 0
	}
	return traceEvent{
		Name: fmt.Sprintf("coflow %d (stage %d)", id, s.stage),
		Ph:   "X", Cat: "coflow",
		TS: s.t * usec, Dur: dur, PID: pid, TID: jobTID(s.job),
		Args: map[string]any{"coflow": id, "stage": s.stage},
	}
}
