// Package enginefixture exercises the engine's identity rule and the
// core's atomics ban. The test harness type-checks it as
// repro/internal/engine/forbidfixture.
package enginefixture

import (
	"sync/atomic"

	"repro/internal/eval"
	"repro/internal/rel"
)

// node holds what one thread reads and writes as plain fields.
type node struct {
	activity atomic.Uint64          // want `^corethread: atomic\.Uint64 in the single-threaded core`
	observer atomic.Pointer[func()] // want `^corethread: atomic\.Pointer in the single-threaded core`
	hits     int64
}

func (n *node) touch() {
	n.activity.Add(1)           // want `^corethread: atomic\.Uint64 in the single-threaded core`
	atomic.AddInt64(&n.hits, 1) // want `^corethread: atomic\.AddInt64 in the single-threaded core`
}

// rid recomputes what the firing already carries.
func rid(f eval.Firing) bool {
	vids := make([]rel.ID, len(f.Inputs))
	for i, in := range f.Inputs {
		vids[i] = in.VID()
	}
	return eval.RuleExecID(f.RuleName, f.OutputLoc, vids) == f.RID // want `^identity: eval\.RuleExecID in the engine recomputes a firing's RID`
}
