// Package walltime flags wall-clock and ambient-randomness reads in
// the deterministic simulation core. Inside
// internal/{simnet,engine,eval,rel,provenance,provstore,nettransport}
// the only clock is the virtual instant (simnet.Time) and the only randomness is a seeded
// *rand.Rand owned by the scenario: a stray time.Now or global
// rand.Intn makes two runs of the same trace diverge, which breaks the
// byte-parity guarantee every provenance digest rests on.
//
// Seeded construction (rand.New, rand.NewSource and the v2
// equivalents) stays legal — determinism comes from owning the seed,
// not from avoiding the package.
package walltime

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the walltime check.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time and ambient randomness in the deterministic simulation core " +
		"(virtual instants are the only clock; randomness must come from a scenario-seeded *rand.Rand)",
	Run: run,
}

// scope is the deterministic core: packages whose behavior must be a
// pure function of (program, trace, seed).
var scope = []string{
	"repro/internal/simnet",
	"repro/internal/engine",
	"repro/internal/eval",
	"repro/internal/rel",
	"repro/internal/wire",
	"repro/internal/provenance",
	// The snapshot store persists the deterministic core's output:
	// every timestamp it writes must be a virtual instant carried in
	// the publish metadata (VersionInput.Time), never the wall clock —
	// otherwise two runs of the same trace produce different bytes on
	// disk and the byte-parity acceptance checks break.
	"repro/internal/provstore",
	// The TCP transport carries the epoch protocol between real
	// processes. Its data plane (framing, exchange ordering, dedup)
	// must stay deterministic; only the loss-recovery edges — dial
	// backoff and retransmit timeouts — may touch the wall clock, and
	// each such site carries a //lint:allow walltime justification.
	"repro/internal/nettransport",
}

// forbiddenTime is every package-level reader of the wall clock or
// wall-clock-driven scheduler in package time.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true,
	"NewTicker": true, "Sleep": true,
}

// allowedRand is the deterministic, explicitly-seeded subset of
// math/rand and math/rand/v2.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewChaCha8": true, "NewZipf": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, isSel := n.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			pkgPath, name, ok := pass.PkgFunc(sel)
			if !ok {
				return true
			}
			// Type references (*rand.Rand fields, rand.Source params)
			// are fine — only calling into the packages is the hazard.
			if _, isType := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); isType {
				return true
			}
			switch pkgPath {
			case "time":
				if forbiddenTime[name] {
					pass.Reportf(n.Pos(),
						"wall-clock time.%s in the deterministic core: virtual instants (simnet.Time) are the only clock here", name)
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[name] {
					pass.Reportf(n.Pos(),
						"ambient randomness rand.%s in the deterministic core: draw from a scenario-seeded *rand.Rand instead", name)
				}
			}
			return true
		})
	}
	return nil, nil
}
