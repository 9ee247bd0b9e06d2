package workload

// DAG templates. A Template is a job skeleton: vertices carry a share of
// the job's total bytes and dependency edges ("Deps" must complete first).
// Shares sum to 1. Templates encode the structures the paper evaluates
// (§V: TPC-DS query-42 and Facebook's TAO) plus the production shapes the
// paper cites from Microsoft [28]: chains, trees, "W", inverted "V", and
// multi-rooted graphs, with ~40% of production jobs tree-shaped and a mean
// depth of five stages.

// TemplateNode is one coflow slot in a job skeleton.
type TemplateNode struct {
	// Share is this coflow's fraction of the job's total bytes.
	Share float64
	// Deps are indices of template nodes that must complete first.
	Deps []int
}

// Template is a job skeleton.
type Template struct {
	Name  string
	Nodes []TemplateNode
}

// Depth returns the number of stages in the template.
func (t Template) Depth() int {
	depth := make([]int, len(t.Nodes))
	best := 0
	// Nodes are listed children-before-parents in all constructors.
	for i, n := range t.Nodes {
		d := 1
		for _, dep := range n.Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[i] = d
		if d > best {
			best = d
		}
	}
	return best
}

// TPCDSQuery42 models the Cloudera industrial benchmark TPC-DS query 42
// the paper grafts onto trace coflows: three table scans (date_dim,
// store_sales, item) feeding two joins, an aggregation, and a final sort —
// a five-stage tree whose byte volume shrinks toward the root.
func TPCDSQuery42() Template {
	return Template{
		Name: "tpcds-q42",
		Nodes: []TemplateNode{
			{Share: 0.30},                    // 0: scan store_sales
			{Share: 0.24},                    // 1: scan date_dim
			{Share: 0.16},                    // 2: scan item
			{Share: 0.14, Deps: []int{0, 1}}, // 3: join sales ⋈ dates
			{Share: 0.09, Deps: []int{2, 3}}, // 4: join ⋈ item
			{Share: 0.05, Deps: []int{4}},    // 5: aggregate
			{Share: 0.02, Deps: []int{5}},    // 6: sort/limit
		},
	}
}

// FBTao models a Facebook TAO-style fan-in: many leaf fetches aggregated
// through two mid-tier coflows into one root response — a wide, shallow
// tree (three stages).
func FBTao() Template {
	return Template{
		Name: "fb-tao",
		Nodes: []TemplateNode{
			{Share: 0.14}, // 0..5: leaf fetches
			{Share: 0.14},
			{Share: 0.13},
			{Share: 0.13},
			{Share: 0.12},
			{Share: 0.12},
			{Share: 0.08, Deps: []int{0, 1, 2}}, // 6: mid-tier aggregate
			{Share: 0.08, Deps: []int{3, 4, 5}}, // 7: mid-tier aggregate
			{Share: 0.06, Deps: []int{6, 7}},    // 8: root
		},
	}
}

// Chain returns an n-stage pipeline with equal shares.
func Chain(n int) Template {
	if n < 1 {
		n = 1
	}
	t := Template{Name: "chain"}
	share := 1 / float64(n)
	for i := 0; i < n; i++ {
		node := TemplateNode{Share: share}
		if i > 0 {
			node.Deps = []int{i - 1}
		}
		t.Nodes = append(t.Nodes, node)
	}
	return t
}

// WShape returns the paper's "W" shape: two roots drawing on three leaves,
// the middle leaf shared — a two-stage multi-output job.
func WShape() Template {
	return Template{
		Name: "w-shape",
		Nodes: []TemplateNode{
			{Share: 0.22},                    // 0: left leaf
			{Share: 0.26},                    // 1: shared middle leaf
			{Share: 0.22},                    // 2: right leaf
			{Share: 0.15, Deps: []int{0, 1}}, // 3: left root
			{Share: 0.15, Deps: []int{1, 2}}, // 4: right root
		},
	}
}

// InvertedV returns the inverted-"V" shape: one leaf feeding two
// independent outputs.
func InvertedV() Template {
	return Template{
		Name: "inverted-v",
		Nodes: []TemplateNode{
			{Share: 0.5},                  // 0: shared input
			{Share: 0.25, Deps: []int{0}}, // 1: output A
			{Share: 0.25, Deps: []int{0}}, // 2: output B
		},
	}
}

// BalancedTree returns a fan-in tree with the given depth and fan-in:
// leaves at stage 1, one root. Bytes shrink by half per level, mirroring
// aggregation pipelines.
func BalancedTree(depth, fanin int) Template {
	if depth < 1 {
		depth = 1
	}
	if fanin < 2 {
		fanin = 2
	}
	t := Template{Name: "tree"}
	// Build top-down to know the node count per level, then emit
	// children-first with computed shares.
	levelCount := make([]int, depth) // level 0 = root
	n := 1
	for l := 0; l < depth; l++ {
		levelCount[l] = n
		n *= fanin
	}
	// Total share weight: leaves (deepest level) get weight 2^(depth-1-l)
	// per node... simpler: level l (root=0) weight per node w_l = 1<<(depth-1-l)
	// scaled so everything sums to 1.
	total := 0.0
	for l := 0; l < depth; l++ {
		total += float64(float64(levelCount[l]) * float64(int(1)<<(depth-1-l)))
	}
	// Emit levels deepest-first; record index ranges per level.
	start := make([]int, depth)
	idx := 0
	for l := depth - 1; l >= 0; l-- {
		start[l] = idx
		w := float64(int(1)<<(depth-1-l)) / total
		for i := 0; i < levelCount[l]; i++ {
			node := TemplateNode{Share: w}
			if l < depth-1 {
				// Children live one level deeper, fanin of them.
				base := start[l+1] + i*fanin
				for k := 0; k < fanin; k++ {
					node.Deps = append(node.Deps, base+k)
				}
			}
			t.Nodes = append(t.Nodes, node)
			idx++
		}
	}
	return t
}

// SingleStage is a one-coflow job (plain trace replay).
func SingleStage() Template {
	return Template{Name: "single", Nodes: []TemplateNode{{Share: 1}}}
}

// FrontLoad skews a template's shares so the leaf stages carry almost all
// bytes (fraction heavyFrac) and later stages almost none — the paper's
// "on-and-off" jobs that TBS-based schedulers punish. Shares are
// renormalized to 1.
func FrontLoad(t Template, heavyFrac float64) Template {
	if heavyFrac <= 0 || heavyFrac >= 1 {
		heavyFrac = 0.9
	}
	out := Template{Name: t.Name + "-frontloaded", Nodes: make([]TemplateNode, len(t.Nodes))}
	copy(out.Nodes, t.Nodes)
	var leafShare, laterShare float64
	for _, n := range t.Nodes {
		if len(n.Deps) == 0 {
			leafShare += n.Share
		} else {
			laterShare += n.Share
		}
	}
	if leafShare == 0 || laterShare == 0 {
		return out // chain of one, or degenerate
	}
	for i, n := range out.Nodes {
		if len(n.Deps) == 0 {
			out.Nodes[i].Share = n.Share / leafShare * heavyFrac
		} else {
			out.Nodes[i].Share = n.Share / laterShare * (1 - heavyFrac)
		}
	}
	return out
}
