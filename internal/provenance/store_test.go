package provenance

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
)

func linkT(s, d string, c int64) rel.Tuple {
	return rel.NewTuple("link", rel.Addr(s), rel.Addr(d), rel.Int(c))
}

func reachT(s, d string) rel.Tuple {
	return rel.NewTuple("reach", rel.Addr(s), rel.Addr(d))
}

// firing builds a firing executed at node "a", where every test below
// records its firings; loc is the output's node.
func firing(rule string, in []rel.Tuple, out rel.Tuple, loc string, sign int) eval.Firing {
	return eval.NewFiring(rule, "a", in, out, loc, sign)
}

func TestBaseLifecycle(t *testing.T) {
	s := NewStore("a")
	lk := linkT("a", "b", 1)
	s.AddBase(lk)
	derivs, ok := s.Derivations(lk.VID())
	if !ok || len(derivs) != 1 || !derivs[0].RID.IsZero() {
		t.Fatalf("derivs = %v %v", derivs, ok)
	}
	if tp, ok := s.TupleOf(lk.VID()); !ok || !tp.Equal(lk) {
		t.Fatal("pin missing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.RemoveBase(lk)
	if _, ok := s.Derivations(lk.VID()); ok {
		t.Fatal("base derivation survived removal")
	}
	if _, ok := s.TupleOf(lk.VID()); ok {
		t.Fatal("pin survived removal")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateBaseCounts(t *testing.T) {
	s := NewStore("a")
	lk := linkT("a", "b", 1)
	s.AddBase(lk)
	s.AddBase(lk)
	s.RemoveBase(lk)
	if _, ok := s.Derivations(lk.VID()); !ok {
		t.Fatal("second base support lost")
	}
	s.RemoveBase(lk)
	if _, ok := s.Derivations(lk.VID()); ok {
		t.Fatal("base derivation should be gone")
	}
}

func TestRecordFiringLocalOutput(t *testing.T) {
	s := NewStore("a")
	lk := linkT("a", "b", 1)
	out := reachT("a", "b")
	s.AddBase(lk)
	e := s.RecordFiring(firing("r1", []rel.Tuple{lk}, out, "a", 1))
	if e.RLoc != "a" || e.VID != out.VID() {
		t.Fatalf("entry = %+v", e)
	}
	derivs, ok := s.Derivations(out.VID())
	if !ok || len(derivs) != 1 || derivs[0].RID != e.RID {
		t.Fatalf("derivs = %v", derivs)
	}
	exec, ok := s.Exec(e.RID)
	if !ok || exec.Rule != "r1" || len(exec.VIDs) != 1 || exec.VIDs[0] != lk.VID() {
		t.Fatalf("exec = %+v", exec)
	}
	// RID must follow the shared definition.
	if e.RID != eval.RuleExecID("r1", "a", []rel.ID{lk.VID()}) {
		t.Fatal("RID does not match RuleExecID")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Retraction removes everything.
	s.RecordFiring(firing("r1", []rel.Tuple{lk}, out, "a", -1))
	if _, ok := s.Derivations(out.VID()); ok {
		t.Fatal("derivation survived retraction")
	}
	if _, ok := s.Exec(e.RID); ok {
		t.Fatal("exec survived retraction")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordFiringRemoteOutput(t *testing.T) {
	sender := NewStore("a")
	receiver := NewStore("b")
	lk := linkT("a", "b", 1)
	out := reachT("b", "a")
	sender.AddBase(lk)
	e := sender.RecordFiring(firing("r1", []rel.Tuple{lk}, out, "b", 1))
	// Sender has the exec but no prov entry for the remote tuple.
	if _, ok := sender.Exec(e.RID); !ok {
		t.Fatal("sender lost exec")
	}
	if _, ok := sender.Derivations(out.VID()); ok {
		t.Fatal("sender must not hold the remote tuple's prov entry")
	}
	receiver.ApplyRemote(out, e, 1)
	derivs, ok := receiver.Derivations(out.VID())
	if !ok || derivs[0].RLoc != "a" {
		t.Fatalf("receiver derivs = %v", derivs)
	}
	if err := sender.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := receiver.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	receiver.ApplyRemote(out, e, -1)
	if _, ok := receiver.Derivations(out.VID()); ok {
		t.Fatal("remote derivation survived retraction")
	}
}

func TestMultipleDerivationsOfSameTuple(t *testing.T) {
	s := NewStore("a")
	l1 := linkT("a", "b", 1)
	l2 := linkT("a", "b", 2)
	out := reachT("a", "b")
	s.AddBase(l1)
	s.AddBase(l2)
	e1 := s.RecordFiring(firing("r1", []rel.Tuple{l1}, out, "a", 1))
	e2 := s.RecordFiring(firing("r1", []rel.Tuple{l2}, out, "a", 1))
	if e1.RID == e2.RID {
		t.Fatal("different inputs must give different RIDs")
	}
	derivs, _ := s.Derivations(out.VID())
	if len(derivs) != 2 {
		t.Fatalf("derivs = %v", derivs)
	}
	s.RecordFiring(firing("r1", []rel.Tuple{l1}, out, "a", -1))
	derivs, _ = s.Derivations(out.VID())
	if len(derivs) != 1 || derivs[0].RID != e2.RID {
		t.Fatalf("derivs after retraction = %v", derivs)
	}
}

func TestIdenticalFiringCountsUp(t *testing.T) {
	s := NewStore("a")
	lk := linkT("a", "b", 1)
	out := reachT("a", "b")
	s.AddBase(lk)
	f := firing("r1", []rel.Tuple{lk}, out, "a", 1)
	s.RecordFiring(f)
	s.RecordFiring(f)
	f.Sign = -1
	s.RecordFiring(f)
	if _, ok := s.Exec(eval.RuleExecID("r1", "a", []rel.ID{lk.VID()})); !ok {
		t.Fatal("exec should survive one retraction of two")
	}
	s.RecordFiring(f)
	if _, ok := s.Exec(eval.RuleExecID("r1", "a", []rel.ID{lk.VID()})); ok {
		t.Fatal("exec should be gone")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionBumpsOnChange(t *testing.T) {
	s := NewStore("a")
	v0 := s.Version()
	s.AddBase(linkT("a", "b", 1))
	if s.Version() == v0 {
		t.Fatal("version must change on AddBase")
	}
	v1 := s.Version()
	s.RemoveBase(linkT("a", "b", 1))
	if s.Version() == v1 {
		t.Fatal("version must change on RemoveBase")
	}
}

func TestStatisticsAndRendering(t *testing.T) {
	s := NewStore("a")
	lk := linkT("a", "b", 1)
	out := reachT("a", "b")
	s.AddBase(lk)
	s.RecordFiring(firing("r1", []rel.Tuple{lk}, out, "a", 1))
	st := s.Statistics()
	if st.ProvEntries != 2 || st.ExecEntries != 1 || st.Pins != 2 {
		t.Fatalf("stats = %+v", st)
	}
	pt := s.ProvTuples()
	if len(pt) != 2 {
		t.Fatalf("prov tuples = %v", pt)
	}
	for _, tp := range pt {
		if tp.Rel != "prov" || tp.Arity() != 4 {
			t.Fatalf("bad prov tuple %s", tp)
		}
	}
	et := s.ExecTuples()
	if len(et) != 1 || et[0].Rel != "ruleExec" || et[0].Arity() != 4 {
		t.Fatalf("exec tuples = %v", et)
	}
}

func TestUnknownLookups(t *testing.T) {
	s := NewStore("a")
	if _, ok := s.Derivations(rel.HashBytes([]byte("x"))); ok {
		t.Fatal("phantom derivations")
	}
	if _, ok := s.Exec(rel.HashBytes([]byte("x"))); ok {
		t.Fatal("phantom exec")
	}
	if _, ok := s.TupleOf(rel.HashBytes([]byte("x"))); ok {
		t.Fatal("phantom pin")
	}
	// Removing things that do not exist must not corrupt state.
	s.RemoveBase(linkT("a", "b", 1))
	s.ApplyRemote(reachT("a", "b"), Entry{VID: reachT("a", "b").VID()}, -1)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedInputPinsSurvivePartialRetraction(t *testing.T) {
	s := NewStore("a")
	lk := linkT("a", "b", 1)
	out1 := reachT("a", "b")
	out2 := rel.NewTuple("twohop", rel.Addr("a"), rel.Addr("b"))
	s.AddBase(lk)
	s.RecordFiring(firing("r1", []rel.Tuple{lk}, out1, "a", 1))
	s.RecordFiring(firing("r2", []rel.Tuple{lk}, out2, "a", 1))
	// Retract r1's firing; lk must stay pinned for r2's exec.
	s.RecordFiring(firing("r1", []rel.Tuple{lk}, out1, "a", -1))
	if _, ok := s.TupleOf(lk.VID()); !ok {
		t.Fatal("shared input unpinned too early")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
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
