package provenance

import (
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
)

func twoNodeGraph(t *testing.T) (map[string]*Store, rel.Tuple, Entry) {
	t.Helper()
	a := NewStore("a")
	b := NewStore("b")
	lk := linkT("a", "b", 1)
	out := reachT("b", "a")
	a.AddBase(lk)
	e := a.RecordFiring(firing("r1", []rel.Tuple{lk}, out, "b", 1))
	b.ApplyRemote(out, e, 1)
	return map[string]*Store{"a": a, "b": b}, out, e
}

func TestCommitVerifyRoundTrip(t *testing.T) {
	stores, _, _ := twoNodeGraph(t)
	for _, s := range stores {
		c := s.Commit()
		if err := VerifyCommitment(s, c); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyCommitmentDetectsTamper(t *testing.T) {
	stores, _, _ := twoNodeGraph(t)
	s := stores["b"]
	c := s.Commit()
	// Forge an entry without going through maintenance, then restore
	// the version counter illusion by checking digest at same version:
	// TamperAddProv bumps nothing version-wise? It must not be
	// detectable only via version.
	forged := reachT("b", "zz")
	s.TamperAddProv(forged, Entry{VID: forged.VID()})
	if s.Version() != c.Version {
		// Tampering that moves the version is caught trivially; the
		// digest check matters when the counter is forged back.
		if err := VerifyCommitment(s, c); err == nil {
			t.Fatal("moved version must not verify")
		}
		s.version = c.Version
	}
	err := VerifyCommitment(s, c)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tamper not detected: %v", err)
	}
}

func TestVerifyCommitmentWrongNode(t *testing.T) {
	stores, _, _ := twoNodeGraph(t)
	c := stores["a"].Commit()
	if err := VerifyCommitment(stores["b"], c); err == nil {
		t.Fatal("cross-node commitment must fail")
	}
}

func TestAuditCleanSystem(t *testing.T) {
	stores, _, _ := twoNodeGraph(t)
	if findings := Audit(stores); len(findings) != 0 {
		t.Fatalf("findings on clean system: %v", findings)
	}
}

func TestAuditDetectsMissingExec(t *testing.T) {
	stores, _, _ := twoNodeGraph(t)
	// Forge a prov entry at b referencing a nonexistent exec at a.
	forged := reachT("b", "x")
	stores["b"].TamperAddProv(forged, Entry{
		VID:  forged.VID(),
		RID:  rel.HashBytes([]byte("bogus")),
		RLoc: "a",
	})
	findings := Audit(stores)
	if len(findings) == 0 {
		t.Fatal("forged derivation not detected")
	}
	found := false
	for _, f := range findings {
		if strings.Contains(f, "missing exec") {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings = %v", findings)
	}
}

func TestAuditDetectsUnknownNode(t *testing.T) {
	stores, _, _ := twoNodeGraph(t)
	forged := reachT("b", "x")
	stores["b"].TamperAddProv(forged, Entry{
		VID:  forged.VID(),
		RID:  rel.HashBytes([]byte("bogus")),
		RLoc: "mallory",
	})
	findings := Audit(stores)
	if len(findings) != 1 || !strings.Contains(findings[0], "unknown node") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestAuditDetectsOrphanExec(t *testing.T) {
	stores, out, e := twoNodeGraph(t)
	// Remove the prov entry at b but leave the exec at a.
	stores["b"].ApplyRemote(out, e, -1)
	findings := Audit(stores)
	if len(findings) != 1 || !strings.Contains(findings[0], "supports no prov entry") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestDigestChangesWithContent(t *testing.T) {
	a := NewStore("a")
	d0 := a.Digest()
	a.AddBase(linkT("a", "b", 1))
	d1 := a.Digest()
	if d0 == d1 {
		t.Fatal("digest must change with content")
	}
	a.RemoveBase(linkT("a", "b", 1))
	if a.Digest() != d0 {
		t.Fatal("digest must return to the empty-partition value")
	}
}

func TestAuditWithEvalFirings(t *testing.T) {
	// A slightly larger graph via real firing records.
	a := NewStore("a")
	lk1 := linkT("a", "b", 1)
	lk2 := linkT("a", "c", 2)
	out := reachT("a", "b")
	a.AddBase(lk1)
	a.AddBase(lk2)
	a.RecordFiring(eval.NewFiring("r1", "a", []rel.Tuple{lk1, lk2}, out, "a", 1))
	if findings := Audit(map[string]*Store{"a": a}); len(findings) != 0 {
		t.Fatalf("findings = %v", findings)
	}
}
