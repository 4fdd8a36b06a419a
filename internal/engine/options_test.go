package engine

import (
	"strings"
	"testing"

	"repro/internal/rel"
)

func TestProvenanceDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Provenance = false
	e, err := New(mincostSrc, []string{"n1", "n2"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	n1, _ := e.Node("n1")
	if n1.Prov != nil {
		t.Fatal("provenance store should be nil when disabled")
	}
	// Protocol state is unaffected.
	mc, err := n1.Tuples("mincost")
	if err != nil || len(mc) != 1 {
		t.Fatalf("mincost = %v (%v)", mc, err)
	}
	// Deletion still works without provenance.
	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	if mc, _ := n1.Tuples("mincost"); len(mc) != 0 {
		t.Fatalf("mincost after removal = %v", mc)
	}
}

func TestOnEvalErrorHandlerSuppressesPanic(t *testing.T) {
	src := `
materialize(in, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,X) :- in(@S,L), X := f_first(L).
`
	e, err := New(src, []string{"n1"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	e.OnEvalError = func(addr string, err error) {
		got = append(got, addr+": "+err.Error())
	}
	// Empty list: f_first fails; the handler observes it.
	if err := e.InsertFact(rel.NewTuple("in", rel.Addr("n1"), rel.List())); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.Contains(got[0], "n1:") {
		t.Fatalf("handler calls = %v", got)
	}
}

func TestEvalErrorPanicsByDefault(t *testing.T) {
	src := `
materialize(in, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,X) :- in(@S,L), X := f_first(L).
`
	e, err := New(src, []string{"n1"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("default eval error policy must panic")
		}
	}()
	_ = e.InsertFact(rel.NewTuple("in", rel.Addr("n1"), rel.List()))
}

func TestSourceAndLocalizedAccessors(t *testing.T) {
	e := newMincost(t, "n1")
	if len(e.Source().Rules) != 3 {
		t.Fatalf("source rules = %d", len(e.Source().Rules))
	}
	// Localization splits mc2 into two rules: 4 total.
	if len(e.Localized().Rules) != 4 {
		t.Fatalf("localized rules = %d", len(e.Localized().Rules))
	}
	if _, ok := e.Catalog().Lookup("e_mc2_Z"); !ok {
		t.Fatal("intermediate relation missing from catalog")
	}
}

func TestGlobalTuplesAggregatesAcrossNodes(t *testing.T) {
	e := newMincost(t, "n1", "n2")
	e.AddBiLink("n1", "n2", 1)
	e.RunQuiescent()
	links := e.GlobalTuples("link")
	if len(links) != 2 {
		t.Fatalf("global links = %v", links)
	}
	if got := e.GlobalTuples("nonexistent"); len(got) != 0 {
		t.Fatalf("nonexistent relation = %v", got)
	}
}
