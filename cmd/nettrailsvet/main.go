// nettrailsvet is the repo's custom static-analysis suite: five
// analyzers that enforce the invariants the whole reproduction rests
// on — determinism (mapdeterminism), snapshot immutability
// (frozenwrite), the cancellation chain (ctxflow), the v1 error
// contract (errenvelope), and the table of banned uses (forbid). See
// docs/ANALYZERS.md for what each one enforces and why.
//
// It runs two ways:
//
//	go vet -vettool=$(pwd)/bin/nettrailsvet ./...   # make vet / CI
//	go run ./cmd/nettrailsvet ./...                 # standalone
//
// Findings are suppressed per line with a justified
// `//lint:allow <name> <why>` comment, the name being the analyzer's or,
// for forbid, the rule's.
package main

import (
	"repro/tools/analyzers/analysis"
	"repro/tools/analyzers/ctxflow"
	"repro/tools/analyzers/errenvelope"
	"repro/tools/analyzers/forbid"
	"repro/tools/analyzers/frozenwrite"
	"repro/tools/analyzers/mapdeterminism"
	"repro/tools/analyzers/multichecker"
)

// analyzers is the suite main registers and TestRepoSelfHostClean
// sweeps.
var analyzers = []*analysis.Analyzer{
	mapdeterminism.Analyzer,
	frozenwrite.Analyzer,
	ctxflow.Analyzer,
	errenvelope.Analyzer,
	forbid.Analyzer,
}

func main() {
	multichecker.Main("nettrailsvet", analyzers...)
}
