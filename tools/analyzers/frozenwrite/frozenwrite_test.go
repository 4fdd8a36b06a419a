package frozenwrite_test

import (
	"testing"

	"repro/tools/analyzers/analyzertest"
	"repro/tools/analyzers/frozenwrite"
)

func TestFrozenwrite(t *testing.T) {
	analyzertest.Run(t, "testdata/src/fwfixture",
		"repro/internal/server/fwfixture", frozenwrite.Analyzer)
}

// TestFrozenwriteRelFrozen type-checks a mirror of the persistent
// table view as repro/internal/rel itself, proving the cross-package
// registry entry flags post-publish writes to rel.Frozen without any
// doc marker on the type.
func TestFrozenwriteRelFrozen(t *testing.T) {
	analyzertest.Run(t, "testdata/src/relfixture",
		"repro/internal/rel", frozenwrite.Analyzer)
}

// TestFrozenwriteRowTuple type-checks a consumer of the real rel.Row as
// repro/internal/eval, proving the evaluator is in scope and that the
// field-level registry entry flags every store to Row.Tuple while a
// composite literal stays legal.
func TestFrozenwriteRowTuple(t *testing.T) {
	analyzertest.Run(t, "testdata/src/evalfixture",
		"repro/internal/eval", frozenwrite.Analyzer)
}

// TestFrozenwriteProvstore type-checks a mirror of the snapshot
// store's read-path types as repro/internal/provstore, proving the
// registry entries for the mmap-backed sealed segment and its succinct
// trie index flag post-seal writes without any doc marker.
func TestFrozenwriteProvstore(t *testing.T) {
	analyzertest.Run(t, "testdata/src/provstorefixture",
		"repro/internal/provstore", frozenwrite.Analyzer)
}

// TestFrozenwriteProvenancePin type-checks a mirror of the pins
// directory's record as repro/internal/provenance, proving its
// nettrails:frozen marker flags a write to a recorded pin while the
// composite literal that records one stays legal.
func TestFrozenwriteProvenancePin(t *testing.T) {
	analyzertest.Run(t, "testdata/src/provenancefixture",
		"repro/internal/provenance", frozenwrite.Analyzer)
}
