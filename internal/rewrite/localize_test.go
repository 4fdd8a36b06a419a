package rewrite

import (
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/ndlog"
)

const pathSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
p1 path(@S,D,C) :- link(@S,D,C).
p2 path(@S,D,C) :- link(@S,Z,C1), path(@Z,D,C2), C := C1 + C2.
`

func TestLocalizePassthroughLocalRules(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
r1 reach(@S,D) :- link(@S,D,_).
`
	p := ndlog.MustParse(src)
	out, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) != 1 || out.Rules[0].String() != p.Rules[0].String() {
		t.Fatalf("local rule changed: %v", out.Rules)
	}
	// Input must not be aliased.
	out.Rules[0].Head.Rel = "mutated"
	if p.Rules[0].Head.Rel != "reach" {
		t.Fatal("Localize aliased the input program")
	}
}

func TestLocalizeSplitsTwoLocationRule(t *testing.T) {
	p := ndlog.MustParse(pathSrc)
	out, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	// p1 unchanged, p2 split into two.
	if len(out.Rules) != 3 {
		t.Fatalf("rules = %d: %v", len(out.Rules), out)
	}
	s1, s2 := out.Rules[1], out.Rules[2]
	if s1.Label != "p2_loc1" || s2.Label != "p2_loc2" {
		t.Fatalf("labels = %s, %s", s1.Label, s2.Label)
	}
	// Stage 1 is at S, ships to Z.
	if lv, _ := s1.Head.LocVar(); lv != "Z" {
		t.Fatalf("intermediate head loc = %s, want Z", lv)
	}
	if len(s1.BodyAtoms()) != 1 || s1.BodyAtoms()[0].Rel != "link" {
		t.Fatalf("stage1 body = %v", s1.Body)
	}
	// Stage 2 joins the intermediate with path at Z and computes C.
	if got := s2.Head.String(); got != "path(@S, D, C)" {
		t.Fatalf("stage2 head = %s", got)
	}
	foundAssign := false
	for _, term := range s2.Body {
		if _, ok := term.(*ndlog.Assign); ok {
			foundAssign = true
		}
	}
	if !foundAssign {
		t.Fatal("assignment C := C1+C2 must move to stage 2 (C2 bound at Z)")
	}
	// The result must be analyzable and compilable.
	a, err := ndlog.Analyze(out)
	if err != nil {
		t.Fatalf("localized program does not analyze: %v\n%s", err, out)
	}
	if _, err := eval.Compile(a); err != nil {
		t.Fatalf("localized program does not compile: %v\n%s", err, out)
	}
	// Intermediate relation got a materialize declaration.
	names := map[string]bool{}
	for _, m := range out.Materialized {
		names[m.Name] = true
	}
	if !names["e_p2_Z"] {
		t.Fatalf("intermediate not materialized: %v", out.Materialized)
	}
}

func TestLocalizeConditionPlacement(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
p2 path(@S,D,C) :- link(@S,Z,C1), path(@Z,D,C2), C1 < 10, C2 < 20, C := C1 + C2.
`
	p := ndlog.MustParse(src)
	out, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := out.Rules[0], out.Rules[1]
	if !strings.Contains(s1.String(), "C1 < 10") {
		t.Fatalf("origin-local condition should stay in stage 1:\n%s", s1)
	}
	if !strings.Contains(s2.String(), "C2 < 20") {
		t.Fatalf("remote condition should be in stage 2:\n%s", s2)
	}
	if _, err := ndlog.Analyze(out); err != nil {
		t.Fatalf("localized program invalid: %v", err)
	}
}

func TestLocalizeReverseLinkDirection(t *testing.T) {
	// The connecting atom lives at the remote side: path(@Z,...) does
	// not mention S, but link(@S,Z,...) mentions Z, so origin is S even
	// when atoms are written in the other order.
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
p2 path(@S,D,C) :- path(@Z,D,C2), link(@S,Z,C1), C := C1 + C2.
`
	out, err := Localize(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) != 2 {
		t.Fatalf("rules = %v", out.Rules)
	}
	if _, err := ndlog.Analyze(out); err != nil {
		t.Fatalf("invalid: %v\n%s", err, out)
	}
}

func TestLocalizeRejectsThreeLocations(t *testing.T) {
	src := `r1 h(@X) :- a(@X,Y), b(@Y,Z), c(@Z,X).`
	_, err := Localize(ndlog.MustParse(src))
	if err == nil || !strings.Contains(err.Error(), "link-restricted") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalizeRejectsDisconnected(t *testing.T) {
	src := `r1 h(@X,Y) :- a(@X,V), b(@Y,V).`
	_, err := Localize(ndlog.MustParse(src))
	if err == nil || !strings.Contains(err.Error(), "link-restricted") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalizeMaybeAndFactsUntouched(t *testing.T) {
	src := `
f1 link(@'a','b',1).
br1 outr(@AS,R2) ?- inr(@AS,R1), f_isExtend(R2,R1,AS) == 1.
`
	p := ndlog.MustParse(src)
	out, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) != 2 {
		t.Fatalf("rules = %v", out.Rules)
	}
	if !out.Rules[1].Maybe {
		t.Fatal("maybe rule lost its marker")
	}
}

func TestLocalizedMincostExecutesDistributed(t *testing.T) {
	// End-to-end check at the eval level: run the two stages manually on
	// two runtimes connected by a hand-rolled send loop.
	p := ndlog.MustParse(pathSrc)
	loc, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ndlog.Analyze(loc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eval.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	rts := map[string]*eval.Runtime{}
	type msg struct {
		dst string
		d   eval.Delta
	}
	var inflight []msg
	for _, n := range []string{"a", "b", "c"} {
		rt, err := eval.NewRuntime(n, c)
		if err != nil {
			t.Fatal(err)
		}
		rt.ErrFn = func(e error) { t.Errorf("eval: %v", e) }
		rt.SendFn = func(dst string, d eval.Delta, f eval.Firing) {
			inflight = append(inflight, msg{dst, d})
		}
		rts[n] = rt
	}
	pump := func() {
		for len(inflight) > 0 {
			m := inflight[0]
			inflight = inflight[1:]
			rt, ok := rts[m.dst]
			if !ok {
				t.Fatalf("message to unknown node %s", m.dst)
			}
			rt.ReceiveRemote(m.d)
		}
	}
	// Chain a->b->c.
	ins := func(n, s, d string, cost int64) {
		if err := rts[n].InsertBase(linkT(s, d, cost)); err != nil {
			t.Fatal(err)
		}
		pump()
	}
	ins("a", "a", "b", 1)
	ins("b", "b", "c", 2)
	// path(a,c,3) should exist at a.
	tbl, err := rts["a"].Store.Table("path")
	if err != nil {
		t.Fatal(err)
	}
	want := "path(@a, c, 3)"
	found := false
	for _, tp := range tbl.Tuples() {
		if tp.String() == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %s; have %v", want, tbl.Tuples())
	}
	// Delete link b->c: path(a,c,3) must retract transitively.
	if err := rts["b"].DeleteBase(linkT("b", "c", 2)); err != nil {
		t.Fatal(err)
	}
	pump()
	for _, tp := range tbl.Tuples() {
		if strings.Contains(tp.String(), "c, 3") {
			t.Fatalf("stale path after deletion: %v", tbl.Tuples())
		}
	}
}
