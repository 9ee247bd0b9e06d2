package lint

// Fixture harness in the style of golang.org/x/tools/go/analysis/analysistest
// (which the no-network constraint keeps out of the module): each analyzer
// has a package under testdata/src/<name>/ whose files carry `// want "re"`
// comments on the lines where a diagnostic is expected. The harness
// type-checks the fixture against the real standard library (export data via
// `go list -export`), runs the analyzer, and requires an exact bidirectional
// match between findings and expectations.
//
// A want comment normally covers its own line; `// want:-1 "re"` shifts the
// expectation by the given line offset, which is how fixtures assert on
// diagnostics that land on a comment line (lintdirective reports at the
// directive itself, and a second comment cannot share that line).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdListErr error
)

// stdExportData returns export-data file paths for the stdlib packages the
// fixtures import (plus transitive deps), produced once per test process.
func stdExportData(t *testing.T) map[string]string {
	t.Helper()
	stdOnce.Do(func() {
		cmd := exec.Command("go", "list", "-export", "-deps",
			"-json=ImportPath,Export", "time", "math/rand", "os", "sort", "fmt",
			"sync", "context")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdListErr = fmt.Errorf("go list std deps: %v\n%s", err, stderr.String())
			return
		}
		stdExports = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err != nil {
				if err == io.EOF {
					break
				}
				stdListErr = fmt.Errorf("go list output: %v", err)
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdListErr != nil {
		t.Fatal(stdListErr)
	}
	return stdExports
}

// expectation is one compiled `// want` entry, consumed by at most one
// diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

var (
	wantRE  = regexp.MustCompile(`^want(:-?\d+)?\s+(.*)$`)
	quoteRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// parseWants extracts expectations from a file's comments.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			m := wantRE.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			line := pos.Line
			if m[1] != "" {
				off, err := strconv.Atoi(m[1][1:])
				if err != nil {
					t.Fatalf("%s: bad want offset %q", pos, m[1])
				}
				line += off
			}
			quoted := quoteRE.FindAllString(m[2], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s: want comment with no quoted pattern: %s", pos, c.Text)
			}
			for _, q := range quoted {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s: unquoting %s: %v", pos, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: compiling want pattern %q: %v", pos, pat, err)
				}
				wants = append(wants, &expectation{
					file: pos.Filename, line: line, re: re, raw: pat,
				})
			}
		}
	}
	return wants
}

// runFixture type-checks testdata/src/<fixture>, runs the analyzer on it
// (bypassing the package-scope filter, which names real gurita packages),
// and matches diagnostics against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
		wants = append(wants, parseWants(t, fset, f)...)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", fixture)
	}

	info := newTypesInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: newExportImporter(fset, stdExportData(t)),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(fixture, fset, files, info)
	for _, err := range typeErrs {
		t.Errorf("fixture %s does not type-check: %v", fixture, err)
	}

	pass := &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		Directives: ParseDirectives(fset, files),
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on fixture %s: %v", a.Name, fixture, err)
	}

	diags := pass.diags
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
