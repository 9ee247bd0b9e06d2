package lint

import "strings"

// LintDirective validates the suppression comments themselves, enforcing
// the "zero unexplained suppressions" policy: every //lint:sorted and
// //lint:ignore must carry a human-readable justification and may only
// name analyzers that exist. A malformed directive is doubly inert — it
// does not suppress (see Directives.Suppresses) and it is flagged here, so
// CI stays red until a reason is written.
var LintDirective = &Analyzer{
	Name: "lintdirective",
}

// Run is assigned in init to break the initialization cycle through
// AnalyzerNames (which enumerates the suite including this analyzer).
func init() { LintDirective.Run = runLintDirective }

func runLintDirective(pass *Pass) error {
	if pass.Directives == nil {
		return nil
	}
	known := map[string]bool{}
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	// Report at the recorded directive position; test files never run
	// analyzers, so skip their directives too.
	for _, dir := range pass.Directives.All() {
		if strings.HasSuffix(dir.Pos.Filename, "_test.go") {
			continue
		}
		pos := dir.Pos
		switch dir.Verb {
		case "sorted":
			if dir.Reason == "" {
				pass.diags = append(pass.diags, Diagnostic{Pos: pos, Analyzer: pass.Analyzer.Name,
					Message: "//lint:sorted requires a justification: //lint:sorted <reason>"})
			}
		case "ignore":
			if len(dir.Analyzers) == 0 || dir.Reason == "" {
				pass.diags = append(pass.diags, Diagnostic{Pos: pos, Analyzer: pass.Analyzer.Name,
					Message: "//lint:ignore requires analyzers and a justification: //lint:ignore <name>[,<name>…] <reason>"})
				continue
			}
			for _, name := range dir.Analyzers {
				if !known[name] {
					pass.diags = append(pass.diags, Diagnostic{Pos: pos, Analyzer: pass.Analyzer.Name,
						Message: "//lint:ignore names unknown analyzer " + name + " (known: " + strings.Join(AnalyzerNames(), ", ") + ")"})
				}
			}
		default:
			pass.diags = append(pass.diags, Diagnostic{Pos: pos, Analyzer: pass.Analyzer.Name,
				Message: "unknown //lint: directive " + dir.Verb + " (known: sorted, ignore)"})
		}
	}
	return nil
}
