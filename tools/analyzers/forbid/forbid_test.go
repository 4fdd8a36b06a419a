package forbid_test

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"repro/tools/analyzers/analyzertest"
	"repro/tools/analyzers/forbid"
	"repro/tools/analyzers/load"
)

// TestForbid type-checks each fixture at an import path inside the
// scopes it exercises (and one outside them all), so the scope gates
// see production code.
func TestForbid(t *testing.T) {
	for _, c := range []struct{ dir, importPath string }{
		{"eval", "repro/internal/eval/forbidfixture"},
		{"rel", "repro/internal/rel/forbidfixture"},
		{"engine", "repro/internal/engine/forbidfixture"},
		{"wire", "repro/internal/wire/forbidfixture"},
		{"server", "repro/internal/server/forbidfixture"},
		{"outside", "repro/cmd/forbidfixture"},
	} {
		t.Run(c.dir, func(t *testing.T) {
			analyzertest.Run(t, filepath.Join("testdata", "src", c.dir), c.importPath, forbid.Analyzer)
		})
	}
}

// TestRulesDocumented cross-checks the table against
// docs/ANALYZERS.md: every rule name and every forbidden use must
// appear, back-quoted, in the doc's table rows.
func TestRulesDocumented(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "docs", "ANALYZERS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line)
		}
	}
	for _, r := range forbid.Rules {
		for _, w := range append([]string{r.Name}, r.Uses...) {
			// The table spells a use as code does: "rand.Intn", the
			// package path for a whole package, "go" for the statement.
			if i := strings.LastIndex(w, "."); w[i+1:] == "*" {
				w = w[:i]
			} else if i > 0 {
				w = path.Base(w[:i]) + w[i:]
			}
			if !strings.Contains(table.String(), "`"+w+"`") {
				t.Errorf("rule %s: `%s` is not in docs/ANALYZERS.md's table", r.Name, w)
			}
		}
	}
}
