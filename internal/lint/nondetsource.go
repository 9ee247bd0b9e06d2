package lint

import (
	"go/ast"
	"go/types"
)

// NonDetSource forbids ambient sources of nondeterminism inside the
// determinism-bearing packages: wall-clock reads (time.Now/Since/Until),
// the process-global math/rand generator (shared, lock-ordered, and not
// seed-plumbed), and environment-dependent branching (os.Getenv and
// friends). Simulated time comes from the event loop; randomness comes
// from rand.New(rand.NewSource(seed)) with the seed carried by the run's
// spec — that is what makes results replayable and cache keys meaningful.
//
// The constructor funcs that *build* a plumbed generator (rand.New,
// rand.NewSource, rand.NewZipf, and the v2 equivalents) are allowed here.
// Whether the seed they receive comes from the spec is checked at run
// time: a literal seed moves the policy goldens, the event-order digests or
// the failure-sweep digest (DESIGN.md §11).
var NonDetSource = &Analyzer{
	Name:     "nondetsource",
	Packages: outputBearing,
	Run:      runNonDetSource,
}

var nondetWallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

var nondetRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, // math/rand
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

var nondetEnv = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func runNonDetSource(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			name := fn.Name()
			switch fn.Pkg().Path() {
			case "time":
				if nondetWallClock[name] {
					pass.Reportf(sel.Pos(),
						"wall-clock time.%s in determinism-bearing code; use the simulated clock (event time) instead", name)
				}
			case "math/rand", "math/rand/v2":
				if !nondetRandAllowed[name] {
					pass.Reportf(sel.Pos(),
						"process-global rand.%s is not seed-plumbed (results become irreproducible); use rand.New(rand.NewSource(seed)) with the spec's seed", name)
				}
			case "os", "syscall":
				if nondetEnv[name] {
					pass.Reportf(sel.Pos(),
						"environment-dependent os.%s in determinism-bearing code; plumb the setting through the run's spec/config instead", name)
				}
			}
			return true
		})
	}
	return nil
}
