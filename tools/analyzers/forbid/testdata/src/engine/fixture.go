// Package enginefixture exercises the engine's identity rule. The test
// harness type-checks it as repro/internal/engine/forbidfixture.
package enginefixture

import (
	"repro/internal/eval"
	"repro/internal/rel"
)

// rid recomputes what the firing already carries.
func rid(f eval.Firing) bool {
	vids := make([]rel.ID, len(f.Inputs))
	for i, in := range f.Inputs {
		vids[i] = in.VID()
	}
	return eval.RuleExecID(f.RuleName, f.OutputLoc, vids) == f.RID // want `^identity: eval\.RuleExecID in the engine recomputes a firing's RID`
}
