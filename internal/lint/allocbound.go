package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// allocGate lists the packages under the allocation budget: the event
// queue, the slabs, the rate allocator, and the simulator — the 0
// allocs/op steady-state path PR 7 built and BenchmarkSteadyStateEvent
// asserts dynamically.
var allocGate = []string{
	"gurita/internal/eventq",
	"gurita/internal/slab",
	"gurita/internal/netmod",
	"gurita/internal/sim",
}

// AllocGatePackages returns the escape-gate scope for drivers that run
// CollectEscapes (cmd/guritalint standalone, the tree test, CI).
func AllocGatePackages() []string {
	return append([]string(nil), allocGate...)
}

// allocFreeContract names the functions that MUST carry //alloc:free —
// the hot-path core whose allocation-freedom the benchmarks budget
// against. Deleting one of these annotations (or the function) fails lint:
// the contract is how a refactor is forced to either keep the path
// heap-free or consciously renegotiate it here.
var allocFreeContract = map[string][]string{
	"gurita/internal/eventq": {
		"Calendar.Schedule", "Calendar.Pop", "Calendar.Cancel",
	},
	"gurita/internal/slab": {
		"Slab.Get", "Slab.Free",
	},
	"gurita/internal/netmod": {
		"Allocator.waterfill", "Allocator.registerCounts", "Allocator.freeze",
	},
	"gurita/internal/sim": {
		"Simulator.advanceTo",
	},
}

const allocDirectivePrefix = "//alloc:"

// AllocBound is the allocation-budget gate. Statically (every mode,
// including go vet): //alloc:free annotations must sit on function
// declarations, and every function in the contract above must carry one.
// With escape data attached (standalone runs and the CI gate, via
// CollectEscapes): any compiler-reported heap escape positioned inside an
// annotated function's body is a finding — the hot path regressed at
// compile time, no benchmark needed. A deliberate cold-path escape inside
// an annotated function (e.g. a panic's formatting) is outlined into a
// helper or carries a //lint:ignore allocbound justification at the
// escaping line.
var AllocBound = &Analyzer{
	Name:     "allocbound",
	Doc:      "checks //alloc:free hot-path functions against the compiler's escape analysis (go build -gcflags=-m)",
	Packages: allocGate,
	Run:      runAllocBound,
}

func runAllocBound(pass *Pass) error {
	annotated := map[string]*ast.FuncDecl{}
	declared := map[string]*ast.FuncDecl{}
	for _, f := range pass.SourceFiles() {
		// Attach directives to the functions whose doc comments carry them.
		docOwner := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[funcDisplayName(fd)] = fd
				if fd.Doc != nil {
					docOwner[fd.Doc] = fd
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allocDirectivePrefix) {
					continue
				}
				verb := strings.TrimPrefix(c.Text, allocDirectivePrefix)
				if i := strings.IndexAny(verb, " \t"); i >= 0 {
					verb = verb[:i]
				}
				if verb != "free" {
					pass.Reportf(c.Pos(), "unknown //alloc: directive %q (known: free)", verb)
					continue
				}
				fd, ok := docOwner[cg]
				if !ok {
					pass.Reportf(c.Pos(), "stray //alloc:free: the annotation must sit in a function declaration's doc comment")
					continue
				}
				annotated[funcDisplayName(fd)] = fd
			}
		}
	}

	// Contract presence: the protected functions must exist and stay
	// annotated.
	pkgPath := ""
	if pass.Pkg != nil {
		pkgPath = pass.Pkg.Path()
	}
	for _, name := range allocFreeContract[pkgPath] {
		if _, ok := annotated[name]; ok {
			continue
		}
		if fd, ok := declared[name]; ok {
			pass.Reportf(fd.Pos(),
				"%s is in the allocbound hot-path contract but has no //alloc:free annotation; restore the annotation or renegotiate the contract in internal/lint/allocbound.go", name)
		} else {
			pos := token.NoPos
			if len(pass.Files) > 0 {
				pos = pass.Files[0].Package
			}
			pass.Reportf(pos,
				"%s is in the allocbound hot-path contract but no longer exists in %s; update the contract in internal/lint/allocbound.go alongside the refactor", name, pkgPath)
		}
	}

	// Escape gate: only when the driver attached compiler diagnostics
	// (standalone/CI; the vet driver runs the static checks above only).
	if pass.Escapes == nil {
		return nil
	}
	names := make([]string, 0, len(annotated))
	for name := range annotated {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fd := annotated[name]
		if fd.Body == nil {
			continue
		}
		file := pass.Fset.Position(fd.Pos()).Filename
		start := pass.Fset.Position(fd.Body.Pos()).Line
		end := pass.Fset.Position(fd.Body.End()).Line
		tokFile := pass.Fset.File(fd.Pos())
		for _, d := range pass.Escapes.InFile(file) {
			if d.Line < start || d.Line > end {
				continue
			}
			pos := fd.Pos()
			if tokFile != nil && d.Line <= tokFile.LineCount() {
				pos = tokFile.LineStart(d.Line) + token.Pos(d.Col-1)
				if int(pos) > tokFile.Base()+tokFile.Size() {
					pos = tokFile.LineStart(d.Line)
				}
			}
			pass.Reportf(pos,
				"heap escape in //alloc:free function %s: %s; keep the hot path allocation-free, outline the cold path, or annotate the line //lint:ignore allocbound <reason>", name, d.Msg)
		}
	}
	return nil
}
