// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer holds a
// name, a doc string, and a Run function over a Pass; a Pass gives the
// Run function one type-checked package and a sink for Diagnostics.
//
// The repo cannot vendor x/tools (the build must work from the standard
// library alone), so nettrailsvet's checkers are written against this
// shim instead. The API is deliberately shaped like the upstream one:
// if x/tools ever becomes available, each analyzer ports by changing
// one import line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:allow suppression comments, unless a diagnostic names
	// its own Category.
	Name string
	// Doc explains what the analyzer enforces and why.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver sets it; analyzers
	// normally call Reportf.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos token.Pos
	// Category names the finding in output and in //lint:allow
	// comments; empty means the analyzer's Name.
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ---- suppression -------------------------------------------------------

// Suppressions indexes //lint:allow comments so drivers can drop
// deliberately-accepted findings. The syntax is
//
//	//lint:allow <analyzer> <justification>
//
// on the flagged line or on the line immediately above it. The
// justification is mandatory: a bare //lint:allow <analyzer> does not
// suppress anything, so every suppression in the tree documents why
// the invariant is safe to break there.
type Suppressions struct {
	fset *token.FileSet
	// byLine maps file -> line -> analyzer names allowed there.
	byLine map[string]map[int][]string
}

// NewSuppressions scans the files' comments for //lint:allow
// directives.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byLine: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				// fields[0] is the analyzer, the rest the justification;
				// both are required.
				if len(fields) < 2 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
			}
		}
	}
	return s
}

// Allowed reports whether a diagnostic from the named analyzer at pos
// is suppressed by a //lint:allow on the same line or the line above.
func (s *Suppressions) Allowed(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	lines := s.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}
