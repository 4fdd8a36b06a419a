// Package walltime_test pins the scope of forbid's walltime rule, the
// check the walltime analyzer made before forbid.Rules absorbed it.
// The directory holds these tests only.
package walltime_test

import (
	"testing"

	"repro/tools/analyzers/analyzertest"
	"repro/tools/analyzers/forbid"
)

// The fixture is type-checked as a package inside the deterministic
// core so the walltime rule's scope admits it, and no other rule binds
// there.
func TestWalltime(t *testing.T) {
	analyzertest.Run(t, "testdata/src/walltimefixture",
		"repro/internal/simnet/walltimefixture", forbid.Analyzer)
}

// TestWalltimeProvstoreScope proves the on-disk snapshot store is part
// of the deterministic core: the identical fixture analyzed under a
// provstore path must produce the same findings, so store timestamps
// can only come from the virtual clock carried in publish metadata
// (provstore.VersionInput.Time), never time.Now.
func TestWalltimeProvstoreScope(t *testing.T) {
	analyzertest.Run(t, "testdata/src/walltimefixture",
		"repro/internal/provstore/walltimefixture", forbid.Analyzer)
}
