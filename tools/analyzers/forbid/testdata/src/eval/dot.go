package evalfixture

import . "time"

// A dot import hides the package qualifier, not the use.
func dotNow() Time {
	return Now() // want `^walltime: wall-clock time\.Now in the deterministic core`
}
