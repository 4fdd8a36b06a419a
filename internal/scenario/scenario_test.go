package scenario

import (
	"strings"
	"testing"

	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/testutil"
)

// TestCatalog is the adversarial acceptance suite: every scenario of
// the catalog boots four engine builds (single process + 3 shards
// behind the gateway), replays its fault, and answers every oracle
// check byte-identically on both arms; every lineage it serves must
// pass the proof checker.
func TestCatalog(t *testing.T) {
	for _, sc := range Catalog() {
		t.Run(sc.Name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			d, err := Boot(sc)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if len(d.Checks) < 5 {
				t.Fatalf("scenario %s has %d checks, want >= 5", sc.Name, len(d.Checks))
			}
			results, err := d.RunChecks()
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(d.Checks) {
				t.Fatalf("ran %d of %d checks", len(results), len(d.Checks))
			}
			t.Logf("%d lineage bodies pass the proof checker", checkProofs(t, d, results))
		})
	}
}

// TestBootRejectsMarkDrift documents the determinism contract: a
// scenario whose arms replay different events must fail to boot.
func TestBootRejectsMarkDrift(t *testing.T) {
	testutil.CheckGoroutines(t)
	sc := PrefixHijack(12, 1)
	builds := 0
	inner := sc.NewInstance
	sc.NewInstance = func() (*Instance, error) {
		inst, err := inner()
		if err != nil {
			return nil, err
		}
		builds++
		if builds == 2 { // first shard arm replays one extra event
			replay := inst.Replay
			inst.Replay = func(mark func(string)) error {
				if err := replay(mark); err != nil {
					return err
				}
				eng := inst.Eng
				drift := rel.NewTuple("routeEntry", rel.Addr(eng.Nodes()[0]), rel.Str("drift"))
				return eng.InsertFact(drift)
			}
		}
		return inst, nil
	}
	d, err := Boot(sc)
	if err == nil {
		d.Close()
		t.Fatal("Boot accepted arms that replayed different event sequences")
	}
	if !strings.Contains(err.Error(), "version") && !strings.Contains(err.Error(), "marks") {
		t.Fatalf("drift error does not mention versions or marks: %v", err)
	}
}

func TestRunCheckUnknownMark(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, err := Boot(RouteLeak())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.RunCheck(Check{Name: "bad", Query: "count of x(@'AS1')", AtMark: "no-such-mark"}); err == nil {
		t.Fatal("RunCheck accepted an unknown mark")
	}
}

func TestTupleLiteralRoundTrips(t *testing.T) {
	for _, tup := range []rel.Tuple{
		rel.NewTuple("routeEntry", rel.Addr("AS01"), rel.Str("203.0.113.0/24")),
		rel.NewTuple("route", rel.Addr("n1"), rel.Addr("n6"),
			rel.List(rel.Addr("n1"), rel.Addr("n2"), rel.Addr("n6"))),
		rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("n3"), rel.Int(2)),
	} {
		lit := TupleLiteral(tup)
		// The literal must parse back to the identical tuple through
		// the public facade (the same parser the HTTP server uses).
		got, err := provquery.ParseTupleLiteral(lit)
		if err != nil {
			t.Fatalf("TupleLiteral(%s) = %q does not parse: %v", tup, lit, err)
		}
		if !got.Equal(tup) {
			t.Fatalf("literal %q parsed to %s, want %s", lit, got, tup)
		}
	}
}

// TestGoldenSnapshotDigest pins the snapshot digest of one catalog
// scenario at its final mark to the value the commit before
// internal/wire produced. The digest hashes every published tuple in
// its canonical encoding and every provenance bucket, over a run whose
// VIDs and RIDs are themselves hashes of that encoding — so a codec
// change that moves any byte anywhere in the pipeline lands here.
func TestGoldenSnapshotDigest(t *testing.T) {
	testutil.CheckGoroutines(t)
	d, err := Boot(RouteLeak())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap := d.SinglePub.Current()
	const wantVersion, wantDigest = 12, "921de179785050a94915c5e351e719c8767470ac"
	if snap.Version != wantVersion || snap.Digest().String() != wantDigest {
		t.Fatalf("route-leak final snapshot: version %d digest %s, want version %d digest %s",
			snap.Version, snap.Digest(), wantVersion, wantDigest)
	}
}
