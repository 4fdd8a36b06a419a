//go:build slow

package scenario

import (
	"testing"

	"repro/internal/testutil"
)

// TestPrefixHijackRouteViewsScale runs the hijack scenario over a
// generated 1000-AS topology — the RouteViews-scale acceptance bar.
// Four engine builds replay the full announce+hijack sequence and the
// oracle must still pin the attacker, byte-identically on the
// single-process and sharded arms, with every lineage passing the proof
// checker. Run via `make scenarios-slow`
// (tier-1 stays fast; this build tag keeps it out of `go test ./...`).
func TestPrefixHijackRouteViewsScale(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, err := Boot(PrefixHijack(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	results, err := d.RunChecks()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d lineage bodies pass the proof checker", checkProofs(t, d, results))
}
