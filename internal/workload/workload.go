// Package workload generates the evaluation workloads (§V): a synthetic
// stand-in for the Facebook 150-rack production coflow trace, the TPC-DS
// query-42 and FB-Tao DAG structures grafted onto its coflows, the
// production job shapes reported for Microsoft's clusters [28], and the
// bursty arrival process of the large-scale experiment. Real traces in the
// public coflow-benchmark format (internal/trace) can be substituted for
// the synthesizer without touching anything else.
//
// All generation is driven by a seeded *rand.Rand: the same Config yields
// the same workload, which the benchmark harness relies on to compare
// schedulers on identical inputs.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"gurita/internal/coflow"
	"gurita/internal/metrics"
	"gurita/internal/topo"
)

// Structure selects the DAG family grafted onto jobs.
type Structure int

// Supported job structures.
const (
	// StructureSingle replays coflows as single-stage jobs.
	StructureSingle Structure = iota + 1
	// StructureFBTao grafts the Facebook TAO fan-in (3 stages, 9 coflows).
	StructureFBTao
	// StructureTPCDS grafts TPC-DS query-42 (5 stages, 7 coflows).
	StructureTPCDS
	// StructureMixed draws per job from the production shape mix of [28]:
	// ~40% trees, plus chains, W, inverted-V, TPC-DS and TAO shapes.
	StructureMixed
)

func (s Structure) String() string {
	switch s {
	case StructureSingle:
		return "single"
	case StructureFBTao:
		return "fb-tao"
	case StructureTPCDS:
		return "tpc-ds"
	case StructureMixed:
		return "mixed"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// ArrivalProcess produces inter-arrival gaps.
type ArrivalProcess interface {
	// NextGap returns the gap, in seconds, between one arrival and the next.
	NextGap(rng *rand.Rand) float64
}

// Poisson arrivals with the given rate (jobs/second).
type Poisson struct{ Rate float64 }

// NextGap implements ArrivalProcess.
func (p Poisson) NextGap(rng *rand.Rand) float64 {
	if p.Rate <= 0 {
		return 0
	}
	return rng.ExpFloat64() / p.Rate
}

// Bursty models the paper's bursty scenario: bursts of BurstSize jobs
// arriving IntraGap apart (the paper uses 2 µs), separated by long
// InterGap quiet periods.
type Bursty struct {
	BurstSize int
	IntraGap  float64
	InterGap  float64

	emitted int
}

// NextGap implements ArrivalProcess.
func (b *Bursty) NextGap(rng *rand.Rand) float64 {
	_ = rng
	if b.BurstSize < 1 {
		b.BurstSize = 1
	}
	b.emitted++
	if b.emitted%b.BurstSize == 0 {
		return b.InterGap
	}
	return b.IntraGap
}

// Uniform arrivals with a constant gap.
type Uniform struct{ Gap float64 }

// NextGap implements ArrivalProcess.
func (u Uniform) NextGap(*rand.Rand) float64 { return u.Gap }

// Config parameterizes synthetic workload generation.
type Config struct {
	// NumJobs is required.
	NumJobs int
	// Seed drives all randomness.
	Seed int64
	// Servers is the placement domain (use topology.NumServers()).
	Servers int
	// Structure selects the DAG family (default StructureMixed).
	Structure Structure
	// Arrival is the inter-arrival process (default Poisson at 1 job/s).
	Arrival ArrivalProcess
	// CategoryWeights is the probability of drawing a job from each Table 1
	// size category. Defaults to the FB-trace-like mix (dominated by small
	// jobs, with a heavy tail through category VII).
	CategoryWeights [metrics.NumCategories]float64
	// MeanFlowSize controls coflow width: width ≈ coflowBytes/MeanFlowSize
	// (default 64 MB, keeping widths in the trace's observed range).
	MeanFlowSize float64
	// MaxWidth caps flows per coflow (default 150, one per rack).
	MaxWidth int
	// FlowSkew in [0,1] sets how much of a coflow rides its largest flow
	// (vertical dimension). 0 = uniform flows. Default 0.5.
	FlowSkew float64
	// FractionFrontLoaded is the fraction of multi-stage jobs whose bytes
	// concentrate in leaf stages (the paper's on-and-off jobs). Default 0.3.
	FractionFrontLoaded float64
}

func (c *Config) applyDefaults() {
	if c.Structure == 0 {
		c.Structure = StructureMixed
	}
	if c.Arrival == nil {
		c.Arrival = Poisson{Rate: 1}
	}
	sum := 0.0
	for _, w := range c.CategoryWeights {
		sum += w
	}
	if sum == 0 {
		c.CategoryWeights = [metrics.NumCategories]float64{
			0.44, 0.25, 0.12, 0.05, 0.07, 0.045, 0.025,
		}
	}
	if c.MeanFlowSize == 0 {
		c.MeanFlowSize = 64e6
	}
	if c.MaxWidth == 0 {
		c.MaxWidth = 150
	}
	if c.FlowSkew == 0 {
		c.FlowSkew = 0.5
	}
	if c.FractionFrontLoaded == 0 {
		c.FractionFrontLoaded = 0.3
	}
}

// Generate produces a validated multi-stage workload.
func Generate(cfg Config) ([]*coflow.Job, error) {
	cfg.applyDefaults()
	if cfg.NumJobs < 1 {
		return nil, fmt.Errorf("workload: NumJobs must be >= 1, got %d", cfg.NumJobs)
	}
	if cfg.Servers < 2 {
		return nil, fmt.Errorf("workload: Servers must be >= 2, got %d", cfg.Servers)
	}
	if cfg.FlowSkew < 0 || cfg.FlowSkew > 1 {
		return nil, fmt.Errorf("workload: FlowSkew must be in [0,1], got %v", cfg.FlowSkew)
	}
	if cfg.FractionFrontLoaded < 0 || cfg.FractionFrontLoaded > 1 {
		return nil, fmt.Errorf("workload: FractionFrontLoaded must be in [0,1], got %v", cfg.FractionFrontLoaded)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var cid coflow.CoflowID
	var fid coflow.FlowID
	jobs := make([]*coflow.Job, 0, cfg.NumJobs)
	now := 0.0
	for i := 0; i < cfg.NumJobs; i++ {
		tpl := cfg.pickTemplate(rng)
		if len(tpl.Nodes) > 1 && rng.Float64() < cfg.FractionFrontLoaded {
			tpl = FrontLoad(tpl, 0.9)
		}
		total := cfg.sampleJobBytes(rng)
		j, err := buildFromTemplate(coflow.JobID(i), now, tpl, total, &cfg, rng, &cid, &fid)
		if err != nil {
			return nil, fmt.Errorf("workload: job %d: %w", i, err)
		}
		jobs = append(jobs, j)
		now += cfg.Arrival.NextGap(rng)
	}
	return jobs, nil
}

// pickTemplate draws a job skeleton for the configured structure.
func (c *Config) pickTemplate(rng *rand.Rand) Template {
	switch c.Structure {
	case StructureSingle:
		return SingleStage()
	case StructureFBTao:
		return FBTao()
	case StructureTPCDS:
		return TPCDSQuery42()
	default: // StructureMixed: production shape mix per [28]
		x := rng.Float64()
		switch {
		case x < 0.40: // ~40% of production jobs are trees
			return BalancedTree(2+rng.Intn(2), 2+rng.Intn(2))
		case x < 0.60:
			return Chain(1 + rng.Intn(8)) // includes plain single-stage jobs; up to 8 stages
		case x < 0.72:
			return WShape()
		case x < 0.82:
			return InvertedV()
		case x < 0.92:
			return TPCDSQuery42()
		default:
			return FBTao()
		}
	}
}

// sampleJobBytes draws a job's total bytes: a Table 1 category by weight,
// then log-uniform within the category's bounds (category VII: 1–5 TB).
func (c *Config) sampleJobBytes(rng *rand.Rand) int64 {
	x := rng.Float64()
	cat := metrics.CategoryVII
	for i := 0; i < metrics.NumCategories; i++ {
		if x < c.CategoryWeights[i] {
			cat = metrics.Category(i + 1)
			break
		}
		x -= c.CategoryWeights[i]
	}
	lo, hi := cat.Bounds()
	if cat == metrics.CategoryVII {
		hi = 5e12
	}
	u := rng.Float64()
	return int64(math.Exp(math.Log(float64(lo)) + float64(u*(math.Log(float64(hi))-math.Log(float64(lo))))))
}

// buildFromTemplate instantiates a template as a concrete job: sizes from
// shares, widths from sizes, placement over the server domain, and flows
// split with the configured vertical skew. Parent coflows source their
// flows from their children's receivers, mirroring how a stage consumes the
// previous stage's output.
func buildFromTemplate(id coflow.JobID, arrival float64, tpl Template, total int64,
	cfg *Config, rng *rand.Rand, cid *coflow.CoflowID, fid *coflow.FlowID) (*coflow.Job, error) {

	b := coflow.NewBuilder(id, arrival, cid, fid)
	handles := make([]int, len(tpl.Nodes))
	receivers := make([][]topo.ServerID, len(tpl.Nodes))

	for i, node := range tpl.Nodes {
		size := int64(node.Share * float64(total))
		if size < 1 {
			size = 1
		}
		width := int(float64(size)/cfg.MeanFlowSize + 0.5)
		if width < 1 {
			width = 1
		}
		if width > cfg.MaxWidth {
			width = cfg.MaxWidth
		}

		// Senders: leaves draw fresh hosts; inner nodes consume their
		// children's outputs.
		var senders []topo.ServerID
		if len(node.Deps) == 0 {
			senders = pickServers(rng, cfg.Servers, width)
		} else {
			for _, d := range node.Deps {
				senders = append(senders, receivers[d]...)
			}
		}
		nr := width/3 + 1
		recv := pickServers(rng, cfg.Servers, nr)
		receivers[i] = recv

		sizes := splitWithSkew(rng, size, width, cfg.FlowSkew)
		specs := make([]coflow.FlowSpec, 0, width)
		for f := 0; f < width; f++ {
			src := senders[f%len(senders)]
			dst := recv[f%len(recv)]
			specs = append(specs, coflow.FlowSpec{Src: src, Dst: dst, Size: sizes[f]})
		}
		handles[i] = b.AddCoflow(specs...)
	}
	for i, node := range tpl.Nodes {
		for _, d := range node.Deps {
			b.Depends(handles[i], handles[d])
		}
	}
	return b.Build()
}

// pickServers draws n servers without replacement when possible.
func pickServers(rng *rand.Rand, servers, n int) []topo.ServerID {
	if n >= servers {
		out := make([]topo.ServerID, n)
		for i := range out {
			out[i] = topo.ServerID(i % servers)
		}
		return out
	}
	seen := make(map[int]struct{}, n)
	out := make([]topo.ServerID, 0, n)
	for len(out) < n {
		s := rng.Intn(servers)
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, topo.ServerID(s))
	}
	return out
}

// splitWithSkew divides total bytes over n flows. skew=0 is an even split;
// as skew → 1 one elephant flow carries up to ~70% of the coflow, leaving
// the rest as mice — producing the vertical dimension Gurita keys on.
func splitWithSkew(rng *rand.Rand, total int64, n int, skew float64) []int64 {
	out := make([]int64, n)
	if n == 1 {
		out[0] = total
		return out
	}
	elephantFrac := 0.1 + float64(0.6*skew*rng.Float64())
	elephant := int64(float64(total) * elephantFrac)
	rest := total - elephant
	// Spread the rest with mild noise.
	weights := make([]float64, n-1)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.5 + float64(rng.Float64())
		sum += weights[i]
	}
	var used int64
	for i := range weights {
		out[i+1] = int64(float64(rest) * weights[i] / sum)
		if out[i+1] < 1 {
			out[i+1] = 1
		}
		used += out[i+1]
	}
	out[0] = total - used
	if out[0] < 1 {
		out[0] = 1
	}
	return out
}
