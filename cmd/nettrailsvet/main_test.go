package main

import (
	"testing"

	"repro/tools/analyzers/load"
	"repro/tools/analyzers/multichecker"
)

// TestRepoSelfHostClean sweeps the whole module with the analyzers
// main registers and requires zero findings: every true positive has
// been fixed and every deliberate exception carries a justified
// //lint:allow. This is
// the same sweep `make vet` runs through go vet -vettool, kept inside
// `go test ./...` so the invariants hold even where only the tier-1
// command runs.
func TestRepoSelfHostClean(t *testing.T) {
	if testing.Short() {
		t.Skip("self-host sweep shells out to go list -export over the module")
	}
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	pkgs, err := load.Packages(root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	analyzed := 0
	for _, pkg := range pkgs {
		for _, d := range multichecker.RunAnalyzers(pkg, analyzers) {
			t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Category, d.Message)
		}
		analyzed++
	}
	t.Logf("analyzed %d packages", analyzed)
}
