package proxy

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/rel"
)

const maybeSrc = `
materialize(inputRoute, infinity, infinity, keys(1,2,3,4)).
materialize(outputRoute, infinity, infinity, keys(1,2,3,4)).
re1 routeEntry(@AS,Prefix) :- outputRoute(@AS,R,Prefix,Path).
br1 outputRoute(@AS,R2,Prefix,Route2) ?- inputRoute(@AS,R1,Prefix,Route1), f_isExtend(Route2,Route1,AS) == 1.
`

func newProxy(t *testing.T, addr string) (*Proxy, *provenance.Store) {
	t.Helper()
	prog := ndlog.MustParse(maybeSrc)
	if _, err := ndlog.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	st := provenance.NewStore(addr)
	p, err := New(addr, prog, st)
	if err != nil {
		t.Fatal(err)
	}
	p.OnError = func(err error) { t.Errorf("proxy error: %v", err) }
	return p, st
}

func path(ases ...string) rel.Value {
	vs := make([]rel.Value, len(ases))
	for i, a := range ases {
		vs[i] = rel.Addr(a)
	}
	return rel.List(vs...)
}

func inR(as, from, prefix string, p rel.Value) rel.Tuple {
	return rel.NewTuple("inputRoute", rel.Addr(as), rel.Addr(from), rel.Str(prefix), p)
}

func outR(as, to, prefix string, p rel.Value) rel.Tuple {
	return rel.NewTuple("outputRoute", rel.Addr(as), rel.Addr(to), rel.Str(prefix), p)
}

func TestNewRequiresMaybeRules(t *testing.T) {
	prog := ndlog.MustParse(`r1 a(@S) :- b(@S).`)
	if _, err := New("n", prog, provenance.NewStore("n")); err == nil {
		t.Fatal("program without maybe rules must be rejected")
	}
	if _, err := New("n", ndlog.MustParse(maybeSrc), nil); err == nil {
		t.Fatal("nil store must be rejected")
	}
}

func TestMaybeMatchCreatesDerivation(t *testing.T) {
	p, st := newProxy(t, "AS2")
	in := inR("AS2", "AS1", "10.0.0.0/24", path("AS1"))
	p.ObserveInput(in, "", nil, nil)
	out := outR("AS2", "AS3", "10.0.0.0/24", path("AS2", "AS1"))
	n := p.ObserveOutput(out)
	if n != 1 || p.Matched != 1 {
		t.Fatalf("matches = %d, Matched = %d", n, p.Matched)
	}
	derivs, ok := st.Derivations(out.VID())
	if !ok || len(derivs) != 1 || derivs[0].RID.IsZero() {
		t.Fatalf("derivs = %v %v", derivs, ok)
	}
	exec, ok := st.Exec(derivs[0].RID)
	if !ok || exec.Rule != "br1" || exec.VIDs[0] != in.VID() {
		t.Fatalf("exec = %+v", exec)
	}
}

func TestNoMatchRecordsOrigin(t *testing.T) {
	p, st := newProxy(t, "AS1")
	out := outR("AS1", "AS2", "10.0.0.0/24", path("AS1"))
	if n := p.ObserveOutput(out); n != 0 {
		t.Fatalf("matches = %d", n)
	}
	derivs, ok := st.Derivations(out.VID())
	if !ok || !derivs[0].RID.IsZero() {
		t.Fatalf("origin derivs = %v", derivs)
	}
	if p.Unmatched != 1 {
		t.Fatalf("Unmatched = %d", p.Unmatched)
	}
}

func TestMismatchedExtensionDoesNotMatch(t *testing.T) {
	p, _ := newProxy(t, "AS2")
	p.ObserveInput(inR("AS2", "AS1", "10.0.0.0/24", path("AS1")), "", nil, nil)
	// Wrong prefix string.
	if n := p.ObserveOutput(outR("AS2", "AS3", "10.9.0.0/24", path("AS2", "AS1"))); n != 0 {
		t.Fatal("different prefix must not match")
	}
	// Path not an extension.
	if n := p.ObserveOutput(outR("AS2", "AS3", "10.0.0.0/24", path("AS9", "AS1"))); n != 0 {
		t.Fatal("non-extension must not match")
	}
}

func TestMultipleCandidateInputs(t *testing.T) {
	// Two different inputs whose paths the output extends: both become
	// derivations ("maybe" semantics keeps all possibilities).
	p, st := newProxy(t, "AS3")
	i1 := inR("AS3", "AS1", "10.0.0.0/24", path("AS2", "AS1"))
	i2 := inR("AS3", "AS2", "10.0.0.0/24", path("AS2", "AS1"))
	p.ObserveInput(i1, "", nil, nil)
	p.ObserveInput(i2, "", nil, nil)
	out := outR("AS3", "AS4", "10.0.0.0/24", path("AS3", "AS2", "AS1"))
	if n := p.ObserveOutput(out); n != 2 {
		t.Fatalf("matches = %d, want 2", n)
	}
	derivs, _ := st.Derivations(out.VID())
	if len(derivs) != 2 {
		t.Fatalf("derivs = %v", derivs)
	}
}

func TestRetractOutputReplaysRecordedBatch(t *testing.T) {
	_, sa := newProxy(t, "AS1")
	p, st := newProxy(t, "AS2")
	senderOut := outR("AS1", "AS2", "10.0.0.0/24", path("AS1"))
	sa.AddBase(senderOut)
	in := inR("AS2", "AS1", "10.0.0.0/24", path("AS1"))
	p.ObserveInput(in, "AS1", &senderOut, sa)
	out := outR("AS2", "AS3", "10.0.0.0/24", path("AS2", "AS1"))
	p.ObserveOutput(out)
	// Retract the input FIRST (withdrawal cascades run cause-first),
	// then the output: the derivation must still be cleaned up.
	p.RetractTransmitted(in, "AS1", senderOut, sa)
	p.RetractOutput(out)
	if _, ok := st.Derivations(out.VID()); ok {
		t.Fatal("output derivation leaked")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.Statistics().ProvEntries != 0 {
		t.Fatalf("stale entries: %+v", st.Statistics())
	}
}

func TestRetractOriginOutput(t *testing.T) {
	p, st := newProxy(t, "AS1")
	out := outR("AS1", "AS2", "10.0.0.0/24", path("AS1"))
	p.ObserveOutput(out)
	p.RetractOutput(out)
	if _, ok := st.Derivations(out.VID()); ok {
		t.Fatal("origin base entry leaked")
	}
}

func TestRetractUnknownOutputIsBestEffort(t *testing.T) {
	p, st := newProxy(t, "AS1")
	p.RetractOutput(outR("AS1", "AS2", "p", path("AS1")))
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTransmissionEdgeLinksNodes(t *testing.T) {
	pa, sa := newProxy(t, "AS1")
	pb, sb := newProxy(t, "AS2")
	_ = pa
	senderOut := outR("AS1", "AS2", "10.0.0.0/24", path("AS1"))
	sa.AddBase(senderOut) // AS1 observed its own output as origin
	in := inR("AS2", "AS1", "10.0.0.0/24", path("AS1"))
	pb.ObserveInput(in, "AS1", &senderOut, sa)
	derivs, ok := sb.Derivations(in.VID())
	if !ok || len(derivs) != 1 {
		t.Fatalf("derivs = %v %v", derivs, ok)
	}
	if derivs[0].RLoc != "AS1" {
		t.Fatalf("transmission RLoc = %s", derivs[0].RLoc)
	}
	exec, ok := sa.Exec(derivs[0].RID)
	if !ok || exec.Rule != TransmitRule {
		t.Fatalf("sender exec = %+v %v", exec, ok)
	}
	// Retract the transmission.
	pb.RetractTransmitted(in, "AS1", senderOut, sa)
	if _, ok := sb.Derivations(in.VID()); ok {
		t.Fatal("transmission derivation leaked")
	}
	if _, ok := sa.Exec(derivs[0].RID); ok {
		t.Fatal("sender exec leaked")
	}
	if err := sa.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestObserveOutputTwiceRetractOnce(t *testing.T) {
	p, st := newProxy(t, "AS2")
	in := inR("AS2", "AS1", "p", path("AS1"))
	p.ObserveInput(in, "", nil, nil)
	out := outR("AS2", "AS3", "p", path("AS2", "AS1"))
	p.ObserveOutput(out)
	p.ObserveOutput(out)
	p.RetractOutput(out)
	// One observation batch remains.
	if _, ok := st.Derivations(out.VID()); !ok {
		t.Fatal("remaining observation lost")
	}
	p.RetractOutput(out)
	if _, ok := st.Derivations(out.VID()); ok {
		t.Fatal("derivation leaked after final retract")
	}
}
