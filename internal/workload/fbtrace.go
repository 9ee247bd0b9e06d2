package workload

import (
	"fmt"
	"math"
	"math/rand"

	"gurita/internal/coflow"
	"gurita/internal/topo"
	"gurita/internal/trace"
)

// This file bridges real (or synthesized) coflow-benchmark traces and the
// multi-stage workloads the paper replays: "Each DAG structure is made up
// of coflows that are exact replications of jobs taken from the original
// trace" (§V). Every trace coflow becomes one job; the selected DAG
// template's nodes replicate the trace coflow's mapper→reducer flow grid,
// scaled to the node's byte share, so the job's total bytes equal the trace
// coflow's bytes and the endpoint placement follows the trace's racks.

// GraftConfig parameterizes FromBenchmark.
type GraftConfig struct {
	// Structure selects the DAG template (default StructureFBTao).
	Structure Structure
	// Servers is the target fabric's host count (required).
	Servers int
	// Seed drives rack→server placement and the shape mix.
	Seed int64
	// FractionFrontLoaded, as in Config (default 0.3).
	FractionFrontLoaded float64
	// TimeScale multiplies trace arrival times (default 1; the paper's
	// bursty runs compress arrivals instead of replaying trace gaps).
	TimeScale float64
	// MaxSenders and MaxReducers cap each DAG node's endpoint pools by even
	// subsampling (defaults 32). The real trace has coflows thousands of
	// flows wide; a flow-level simulator replays the mapper×reducer grid, so
	// uncapped inner nodes would square that. Byte totals are preserved —
	// only flow granularity coarsens.
	MaxSenders  int
	MaxReducers int
}

// subsample returns at most max elements of s, evenly spaced.
func subsample(s []topo.ServerID, max int) []topo.ServerID {
	if max <= 0 || len(s) <= max {
		return s
	}
	out := make([]topo.ServerID, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, s[i*len(s)/max])
	}
	return out
}

func (c *GraftConfig) applyDefaults() {
	if c.Structure == 0 {
		c.Structure = StructureFBTao
	}
	if c.FractionFrontLoaded == 0 {
		c.FractionFrontLoaded = 0.3
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.MaxSenders == 0 {
		c.MaxSenders = 32
	}
	if c.MaxReducers == 0 {
		c.MaxReducers = 32
	}
}

// FromBenchmark grafts DAG structures onto benchmark-trace coflows.
func FromBenchmark(specs []trace.CoflowSpec, numRacks int, cfg GraftConfig) ([]*coflow.Job, error) {
	cfg.applyDefaults()
	if cfg.Servers < 2 {
		return nil, fmt.Errorf("workload: Servers must be >= 2, got %d", cfg.Servers)
	}
	if numRacks < 1 {
		return nil, fmt.Errorf("workload: numRacks must be >= 1, got %d", numRacks)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	spr := cfg.Servers / numRacks
	if spr < 1 {
		spr = 1
	}
	rackServer := func(rack int) topo.ServerID {
		rack = rack % numRacks
		if rack < 0 {
			rack += numRacks
		}
		s := rack*spr + rng.Intn(spr)
		return topo.ServerID(s % cfg.Servers)
	}

	pick := Config{Structure: cfg.Structure}
	var cid coflow.CoflowID
	var fid coflow.FlowID
	jobs := make([]*coflow.Job, 0, len(specs))
	for i, spec := range specs {
		if len(spec.Mappers) == 0 || len(spec.Reducers) == 0 {
			return nil, fmt.Errorf("workload: trace coflow %d has no mappers or no reducers", spec.ID)
		}
		tpl := pick.pickTemplate(rng)
		if len(tpl.Nodes) > 1 && rng.Float64() < cfg.FractionFrontLoaded {
			tpl = FrontLoad(tpl, 0.9)
		}

		// Fixed endpoint pools for this job, reused (shifted) per node.
		mappers := make([]topo.ServerID, len(spec.Mappers))
		for k, r := range spec.Mappers {
			mappers[k] = rackServer(r)
		}
		reducers := make([]topo.ServerID, len(spec.Reducers))
		for k, r := range spec.Reducers {
			reducers[k] = rackServer(r.Rack)
		}

		b := coflow.NewBuilder(coflow.JobID(i), spec.ArrivalMillis/1000*cfg.TimeScale, &cid, &fid)
		handles := make([]int, len(tpl.Nodes))
		receivers := make([][]topo.ServerID, len(tpl.Nodes))
		for ni, node := range tpl.Nodes {
			// Replicate the mapper→reducer grid scaled by the node's share.
			var senders []topo.ServerID
			if len(node.Deps) == 0 {
				senders = mappers
			} else {
				for _, d := range node.Deps {
					senders = append(senders, receivers[d]...)
				}
			}
			senders = subsample(senders, cfg.MaxSenders)
			// Rotate the reducer pool per node so stages land on different
			// hosts, as new tasks would.
			recv := make([]topo.ServerID, len(reducers))
			for k := range reducers {
				recv[k] = reducers[(k+ni)%len(reducers)]
			}
			recv = subsample(recv, cfg.MaxReducers)
			receivers[ni] = recv

			// The node's bytes: the trace coflow's volume times the share;
			// split over the (possibly subsampled) reducer pool, then over
			// senders, preserving totals.
			nodeBytes := float64(spec.TotalBytes()) * node.Share
			perReducer := nodeBytes / float64(len(recv))
			per := perReducer / float64(len(senders))
			sz := int64(math.Max(per, 1))
			var specsOut []coflow.FlowSpec
			for ri := range recv {
				for si := range senders {
					specsOut = append(specsOut, coflow.FlowSpec{
						Src:  senders[si],
						Dst:  recv[ri],
						Size: sz,
					})
				}
			}
			handles[ni] = b.AddCoflow(specsOut...)
		}
		for ni, node := range tpl.Nodes {
			for _, d := range node.Deps {
				b.Depends(handles[ni], handles[d])
			}
		}
		j, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("workload: grafting trace coflow %d: %w", spec.ID, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// SynthesizeBenchmark produces a coflow-benchmark-format trace matching the
// published shape of the Facebook trace: Poisson arrivals, narrow-biased
// widths with a wide tail, and heavy-tailed shuffle sizes spanning the
// Table 1 categories. Use it when the real FB2010-1Hr-150-0.txt is not
// available (this repository ships no proprietary data).
func SynthesizeBenchmark(numCoflows, numRacks int, seed int64) []trace.CoflowSpec {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{}
	cfg.applyDefaults()
	specs := make([]trace.CoflowSpec, 0, numCoflows)
	nowMillis := 0.0
	for i := 0; i < numCoflows; i++ {
		total := cfg.sampleJobBytes(rng)
		// Width distribution: mostly narrow, heavy tail (Varys reports
		// >50% of coflows narrower than 50 flows with a tail into the
		// thousands; rack-level traces cap at numRacks).
		var m, r int
		switch x := rng.Float64(); {
		case x < 0.5:
			m, r = 1+rng.Intn(4), 1+rng.Intn(4)
		case x < 0.85:
			m, r = 2+rng.Intn(20), 1+rng.Intn(10)
		default:
			m, r = 10+rng.Intn(numRacks), 5+rng.Intn(numRacks/2+1)
		}
		if m > numRacks {
			m = numRacks
		}
		if r > numRacks {
			r = numRacks
		}
		spec := trace.CoflowSpec{
			ID:            int64(i + 1),
			ArrivalMillis: nowMillis,
		}
		for k := 0; k < m; k++ {
			spec.Mappers = append(spec.Mappers, rng.Intn(numRacks))
		}
		perReducerMB := float64(total) / 1e6 / float64(r)
		for k := 0; k < r; k++ {
			mb := perReducerMB * (0.5 + float64(rng.Float64()))
			spec.Reducers = append(spec.Reducers, trace.ReducerSpec{
				Rack:   rng.Intn(numRacks),
				SizeMB: math.Max(mb, 0.001),
			})
		}
		specs = append(specs, spec)
		nowMillis += float64(rng.ExpFloat64() * 1000) // ~1 coflow/second
	}
	return specs
}
