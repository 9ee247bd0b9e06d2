package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

func f() {
	//lint:sorted keys land in independent buckets
	_ = 1
	//lint:sorted
	_ = 2
	//lint:ignore ctxflow,durability bounded intent
	_ = 3
	_ = 4 //lint:ignore nondetsource trailing form
}
`

func parseDirectiveSrc(t *testing.T) *Directives {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return ParseDirectives(fset, []*ast.File{f})
}

func TestParseDirectives(t *testing.T) {
	all := parseDirectiveSrc(t).All()
	if len(all) != 4 {
		t.Fatalf("parsed %d directives, want 4", len(all))
	}
	if all[0].Verb != "sorted" || all[0].Reason == "" || all[0].Analyzers[0] != "maprange" {
		t.Errorf("justified sorted parsed wrong: %+v", all[0])
	}
	if all[1].Verb != "sorted" || all[1].Reason != "" {
		t.Errorf("bare sorted parsed wrong: %+v", all[1])
	}
	if len(all[2].Analyzers) != 2 || all[2].Analyzers[1] != "durability" || all[2].Reason != "bounded intent" {
		t.Errorf("multi-analyzer ignore parsed wrong: %+v", all[2])
	}
	if all[3].Analyzers[0] != "nondetsource" || all[3].Reason != "trailing form" {
		t.Errorf("trailing ignore parsed wrong: %+v", all[3])
	}
}

func TestSuppresses(t *testing.T) {
	d := parseDirectiveSrc(t)
	at := func(line int) token.Position {
		return token.Position{Filename: "p.go", Line: line}
	}
	// Justified //lint:sorted on line 4 covers lines 4 and 5 for maprange only.
	if !d.Suppresses("maprange", at(4)) || !d.Suppresses("maprange", at(5)) {
		t.Error("justified sorted directive should cover its line and the next")
	}
	if d.Suppresses("maprange", at(6)) {
		t.Error("directive must not reach two lines down")
	}
	if d.Suppresses("ctxflow", at(5)) {
		t.Error("sorted directive must only suppress maprange")
	}
	// Bare //lint:sorted on line 6 suppresses nothing.
	if d.Suppresses("maprange", at(7)) {
		t.Error("unjustified directive must not suppress")
	}
	// Multi-analyzer ignore on line 8 covers both names on lines 8-9.
	if !d.Suppresses("ctxflow", at(9)) || !d.Suppresses("durability", at(9)) {
		t.Error("multi-analyzer ignore should suppress both named analyzers")
	}
	if d.Suppresses("maprange", at(9)) {
		t.Error("ignore must not suppress unnamed analyzers")
	}
	// Trailing-comment form on line 10 covers its own line.
	if !d.Suppresses("nondetsource", at(10)) {
		t.Error("trailing directive should cover its own line")
	}
	// Wrong file never matches.
	if d.Suppresses("ctxflow", token.Position{Filename: "q.go", Line: 9}) {
		t.Error("directives are per-file")
	}
}

func TestAppliesTo(t *testing.T) {
	if !MapRange.AppliesTo("gurita/internal/sim") {
		t.Error("maprange should apply to internal/sim")
	}
	if MapRange.AppliesTo("gurita/internal/lint") {
		t.Error("maprange must not apply to the lint package itself")
	}
	if !LintDirective.AppliesTo("gurita/internal/lint") {
		t.Error("lintdirective is unscoped and applies everywhere")
	}
}
