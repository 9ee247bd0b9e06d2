// Package lint is guritalint's analyzer suite: a set of static checks
// that turn the repo's determinism invariants — byte-identical event
// trajectories, delta≡batch rate allocation, fault-replay identity,
// content-addressed cache keys — into build-time errors instead of
// replay-test failures.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built entirely on the standard
// library so the module stays dependency-free: the container this repo is
// grown in has no network access, so x/tools cannot be vendored. If the
// module ever gains the real dependency, each Analyzer.Run ports directly.
//
// Analyzers and scopes are documented in DESIGN.md §11. The suppression
// policy: every escape hatch (//lint:sorted, //lint:ignore) must carry a
// justification; a bare directive both fails to suppress and is itself
// flagged by the lintdirective analyzer, so the tree can never accumulate
// unexplained exemptions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one static check. The zero scope (empty Packages) means
// the driver runs it on every package it loads; otherwise only on the
// listed import paths.
type Analyzer struct {
	Name     string
	Doc      string
	Packages []string // import paths the check is scoped to; empty = all
	Run      func(*Pass) error
}

// AppliesTo reports whether the driver should run the analyzer on the
// package with the given import path. Vet's test-variant suffix
// ("pkg [pkg.test]") is stripped before matching.
func (a *Analyzer) AppliesTo(importPath string) bool {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i]
	}
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == importPath {
			return true
		}
	}
	return false
}

// A Pass carries one (analyzer, package) run: the parsed and type-checked
// package plus the directive table used to apply justified suppressions.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	Directives *Directives
	// Escapes carries parsed `go build -gcflags=-m` diagnostics when the
	// driver ran the allocbound escape gate (standalone/CI); nil under the
	// vet driver, where allocbound runs its static checks only.
	Escapes *EscapeSet

	diags []Diagnostic
}

// A Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding unless a justified directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Directives != nil && p.Directives.Suppresses(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SourceFiles yields the pass's non-test files. The determinism contract
// covers shipped simulation code; test files deliberately use wall-clock
// timeouts and fixed literal seeds, so every analyzer skips them.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := filepath.Base(p.Fset.Position(f.Package).Filename)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TypeOf is TypesInfo.TypeOf made safe for partially type-checked trees.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// Package scopes. Two tiers:
//
//   - simCritical: packages whose execution order IS the result — the event
//     loop, schedulers, the rate allocator, fault machinery. Any
//     nondeterminism here breaks the delta≡batch and fault-replay
//     contracts directly.
//   - outputBearing: simCritical plus every package on the path from a
//     finished run to bytes on disk or stdout (metrics aggregation, trace
//     synthesis, the facade, the CLIs). Nondeterminism here corrupts
//     figures, CSVs and cache keys even when the simulation itself is sound.
var simCritical = []string{
	"gurita/internal/core",
	"gurita/internal/sim",
	"gurita/internal/sched",
	"gurita/internal/netmod",
	"gurita/internal/hr",
	"gurita/internal/faults",
	"gurita/internal/eventq",
	// The slab arenas back event-queue slots and Job/Coflow/FlowState
	// identity: handle recycling order decides which pointer a policy sees,
	// so allocation-order nondeterminism here is result nondeterminism.
	"gurita/internal/slab",
	"gurita/internal/coflow",
}

var outputBearing = append([]string{
	"gurita",
	"gurita/internal/metrics",
	"gurita/internal/workload",
	"gurita/internal/topo",
	"gurita/internal/trace",
	"gurita/internal/runner",
	// The pluggable store behind campaign execution: cache keys, envelope
	// bytes, lease arbitration, and manifest shards all flow through these
	// packages, so nondeterminism here corrupts the exactly-once-bytes
	// contract across every backend; a nondeterministic claim path would
	// also corrupt the retry/reclaim accounting the manifests promise.
	// Wall-clock use (lease TTLs and staleness, retry budgets) is their one
	// justified source, carrying lint waivers.
	"gurita/internal/cachestore",
	"gurita/internal/cachestore/fsstore",
	"gurita/internal/cachestore/httpstore",
	"gurita/internal/serve/cachehttp",
	"gurita/internal/obs",
	// The daemon path: its queue dispatch order feeds the fair scheduler and
	// its responses are result bytes, so it is output-bearing end to end
	// (wall-clock use there must be justified per the DESIGN.md §11 contract).
	"gurita/internal/serve",
	"gurita/internal/serve/fairq",
	"gurita/internal/cliflags",
	"gurita/cmd/figures",
	"gurita/cmd/guritasim",
	"gurita/cmd/guritad",
	// guritaworker writes result JSON byte-for-byte equal to guritasim's, so
	// it is output-bearing end to end. guritachaos is deliberately NOT in
	// scope: its whole job is wall-clock kill schedules and seeded jitter,
	// and none of its output feeds figures or caches.
	"gurita/cmd/guritaworker",
	"gurita/cmd/tracegen",
	"gurita/cmd/obsvalidate",
}, simCritical...)

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapRange,
		NonDetSource,
		FloatCmp,
		SeedPlumb,
		LockCheck,
		CtxFlow,
		Durability,
		AllocBound,
		LintDirective,
	}
}

// AnalyzerNames returns the known analyzer names (for directive validation).
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// RunAnalyzers runs every applicable analyzer over the loaded packages and
// returns the surviving findings sorted by position then analyzer, so
// output is stable across runs and worker counts.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		dirs := ParseDirectives(pkg.Fset, pkg.Files)
		for _, an := range analyzers {
			if !an.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:   an,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				Directives: dirs,
				Escapes:    pkg.Escapes,
			}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, an.Name, err)
			}
			all = append(all, pass.diags...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
