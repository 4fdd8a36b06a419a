package viz

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/rel"
)

func buildQueried(t *testing.T) (*engine.Engine, *provquery.Result) {
	t.Helper()
	e, err := protocols.Build(protocols.MinCost, protocols.NodeNames(3),
		protocols.LineTopology(3, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := provquery.Attach(e)
	if err != nil {
		t.Fatal(err)
	}
	mc := rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("n3"), rel.Int(2))
	res, err := c.Query(provquery.Lineage, "n1", mc, provquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestTopologyView(t *testing.T) {
	e, _ := buildQueried(t)
	out := TopologyView(e.Net)
	for _, want := range []string{"n1", "n2 -- n3", "up", "msg"} {
		if !strings.Contains(out, want) {
			t.Fatalf("topology view missing %q:\n%s", want, out)
		}
	}
	e.Net.SetLinkUp("n1", "n2", false)
	if !strings.Contains(TopologyView(e.Net), "DOWN") {
		t.Fatal("down link not marked")
	}
}

func TestProofTreeRendering(t *testing.T) {
	_, res := buildQueried(t)
	out := ProofTree(res.Root, 0)
	for _, want := range []string{
		"mincost(@n1, n3, 2) @n1",
		"via rule mc3 @n1",
		"[base]",
		"link(@",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("proof tree missing %q:\n%s", want, out)
		}
	}
	// Every line after the root is indented.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("tree too small:\n%s", out)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, " ") && !strings.HasPrefix(l, "|") {
			t.Fatalf("unindented line %q", l)
		}
	}
}

func TestProofTreeDepthLimitFocusContext(t *testing.T) {
	_, res := buildQueried(t)
	full := ProofTree(res.Root, 0)
	shallow := ProofTree(res.Root, 1)
	if !strings.Contains(shallow, "...") {
		t.Fatalf("depth-limited view should elide:\n%s", shallow)
	}
	if len(shallow) >= len(full) {
		t.Fatal("depth limit did not shrink output")
	}
}

func TestTupleCard(t *testing.T) {
	tp := rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("n3"), rel.Int(2))
	out := TupleCard(tp, "n1")
	for _, want := range []string{"tuple    mincost", "location n1", "arg[2]   2", "vid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("card missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	w := len(lines[0])
	for _, l := range lines {
		if len(l) != w {
			t.Fatalf("ragged card box:\n%s", out)
		}
	}
}
