package rewrite

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/ndlog"
	"repro/internal/rel"
)

// TestLocalizeHeadAtThirdVariable covers a rule whose head location is
// bound in the body but is neither of the two body locations: the
// stage-2 runtime send handles the final hop.
func TestLocalizeHeadAtThirdVariable(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(owner, infinity, infinity, keys(1,2)).
materialize(report, infinity, infinity, keys(1,2,3)).
r1 report(@O,S,D) :- link(@S,Z,_), owner(@Z,O), D := Z.
`
	p := ndlog.MustParse(src)
	out, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ndlog.Analyze(out)
	if err != nil {
		t.Fatalf("localized invalid: %v\n%s", err, out)
	}
	c, err := eval.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	// Execute over three hand-wired runtimes.
	rts := map[string]*eval.Runtime{}
	type msg struct {
		dst string
		d   eval.Delta
	}
	var inflight []msg
	for _, n := range []string{"s", "z", "o"} {
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
			rts[m.dst].ReceiveRemote(m.d)
		}
	}
	if err := rts["s"].InsertBase(rel.NewTuple("link", rel.Addr("s"), rel.Addr("z"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	pump()
	if err := rts["z"].InsertBase(rel.NewTuple("owner", rel.Addr("z"), rel.Addr("o"))); err != nil {
		t.Fatal(err)
	}
	pump()
	tbl, err := rts["o"].Store.Table("report")
	if err != nil {
		t.Fatal(err)
	}
	ts := tbl.Tuples()
	if len(ts) != 1 || ts[0].String() != "report(@o, s, z)" {
		t.Fatalf("report at o = %v", ts)
	}
}

// TestLocalizeCarriesOnlyNeededVariables: the intermediate relation
// ships exactly the variables stage 2 and the head consume.
func TestLocalizeCarriesOnlyNeededVariables(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(big, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,D) :- link(@S,Z,Unused), big(@Z,D).
`
	out, err := Localize(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	stage1 := out.Rules[0]
	// Carried: Z (loc) + S; Unused must not travel.
	if len(stage1.Head.Args) != 2 {
		t.Fatalf("intermediate arity = %d: %s", len(stage1.Head.Args), stage1)
	}
	for _, a := range stage1.Head.Args {
		if v, ok := a.(*ndlog.VarArg); ok && v.Name == "Unused" {
			t.Fatalf("unused variable shipped: %s", stage1)
		}
	}
}

// TestLocalizeDeterministic: two runs produce identical programs.
func TestLocalizeDeterministic(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
p2 path(@S,D,C) :- link(@S,Z,C1), path(@Z,D,C2), C := C1 + C2, C < 9.
`
	a, err := Localize(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Localize(ndlog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("nondeterministic localization:\n%s\nvs\n%s", a, b)
	}
}
