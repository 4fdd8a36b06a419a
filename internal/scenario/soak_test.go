package scenario

import (
	"testing"

	"repro/internal/testutil"
)

// TestSoakSmall runs the soak end to end at a tiny size:
// the oracle suite must pass first, every query must succeed, and the
// churn loop must mint snapshot versions while clients are in flight.
func TestSoakSmall(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, err := Boot(PrefixHijack(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	report, err := d.Soak(SoakOptions{Clients: 4, Queries: 120, ChurnEvents: 20})
	if err != nil {
		t.Fatal(err)
	}
	if report.ChecksPassed != len(d.Checks) {
		t.Fatalf("checks passed = %d, want %d", report.ChecksPassed, len(d.Checks))
	}
	if report.PublishedVersions < 20 {
		t.Fatalf("churn minted %d versions, want >= 20", report.PublishedVersions)
	}
	var total int64
	for code, n := range report.Statuses {
		if code != "200" && code != "404" {
			t.Fatalf("unexpected status %s x%d", code, n)
		}
		total += n
	}
	if total != 120 {
		t.Fatalf("answered %d queries, want 120", total)
	}
	if report.CacheHits+report.CacheMisses != 120 {
		t.Fatalf("cache verdicts %d+%d do not cover 120 queries", report.CacheHits, report.CacheMisses)
	}
	// Versions stayed aligned across arms through the churn.
	want := d.SinglePub.Current().Version
	for i, pub := range d.ShardPubs {
		if got := pub.Current().Version; got != want {
			t.Fatalf("after churn, shard %d at version %d, single at %d", i, got, want)
		}
	}
}

// TestSoakNoChurnFact documents the contract for scenarios without a
// churn fact: churn must be explicitly disabled.
func TestSoakNoChurnFact(t *testing.T) {
	testutil.CheckGoroutines(t)
	sc := RouteLeak()
	inner := sc.NewInstance
	sc.NewInstance = func() (*Instance, error) {
		inst, err := inner()
		if err != nil {
			return nil, err
		}
		inst.ChurnFact = nil
		return inst, nil
	}
	d, err := Boot(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Soak(SoakOptions{Clients: 2, Queries: 20, ChurnEvents: 10}); err == nil {
		t.Fatal("Soak ran churn without a churn fact")
	}
	if report, err := d.Soak(SoakOptions{Clients: 2, Queries: 20, ChurnEvents: 0}); err != nil {
		t.Fatal(err)
	} else if report.PublishedVersions != 0 {
		t.Fatalf("churnless soak minted %d versions", report.PublishedVersions)
	}
}
