// Package analyzertest runs one analyzer over a fixture package and
// checks its diagnostics against `// want` annotations, in the style
// of golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { sink = append(sink, k) } // want `unsorted map range`
//
// Each `// want` comment carries one or more quoted (double- or
// back-quoted) regular expressions; every diagnostic the analyzer
// emits on that line must match one of them as "category: message",
// and every annotation must be matched by a diagnostic. Fixture packages live under
// testdata/src/<name>/ and are type-checked with a caller-chosen
// import path, so scope-limited analyzers can be pointed at fixtures
// as if they lived inside the package trees they police.
package analyzertest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/load"
	"repro/tools/analyzers/multichecker"
)

// want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run type-checks the fixture package in dir as importPath and applies
// the analyzer, failing t on any mismatch between diagnostics and
// `// want` annotations.
func Run(t *testing.T, dir, importPath string, a *analysis.Analyzer) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	imports, err := load.ImportsOf(fset, files)
	if err != nil {
		t.Fatalf("parsing fixture imports: %v", err)
	}
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	exports, err := load.Exports(root, imports...)
	if err != nil {
		t.Fatalf("resolving fixture imports: %v", err)
	}
	pkg, err := load.Check(importPath, fset, files, load.NewImporter(fset, exports, nil))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}

	wants := parseWants(t, pkg)
	diags := multichecker.RunAnalyzers(pkg, []*analysis.Analyzer{a})

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		msg := d.Category + ": " + d.Message
		if !claim(wants, pos.Filename, pos.Line, msg) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, msg)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on (file, line) whose regexp
// matches msg.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts every `// want` annotation from the fixture.
func parseWants(t *testing.T, pkg *load.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				for rest != "" {
					var lit string
					var err error
					switch rest[0] {
					case '"':
						end := strings.Index(rest[1:], `"`)
						if end < 0 {
							t.Fatalf("%s: unterminated want string", pos)
						}
						lit, err = strconv.Unquote(rest[:end+2])
						rest = strings.TrimSpace(rest[end+2:])
					case '`':
						end := strings.Index(rest[1:], "`")
						if end < 0 {
							t.Fatalf("%s: unterminated want string", pos)
						}
						lit = rest[1 : end+1]
						rest = strings.TrimSpace(rest[end+2:])
					default:
						t.Fatalf("%s: malformed want annotation %q", pos, text)
					}
					if err != nil {
						t.Fatalf("%s: bad want string: %v", pos, err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: lit})
				}
			}
		}
	}
	return wants
}
