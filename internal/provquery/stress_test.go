package provquery

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provenance"
	"repro/internal/rel"
)

// TestDeepChainLineage walks a 12-node line: the derivation chain hops
// through 11 intermediate stages across nodes.
func TestDeepChainLineage(t *testing.T) {
	const n = 12
	_, c := buildLine(t, n)
	mc := mincostTuple("n1", protocols.NodeName(n), int64(n-1))
	res, err := c.Query(Lineage, "n1", mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Depth: mincost -> cost -> (e + mincost) recursively; at least
	// 3 levels per hop.
	if res.Root.Depth() < 2*(n-1) {
		t.Fatalf("depth = %d for %d hops", res.Root.Depth(), n-1)
	}
	// Bases: all n-1 forward links.
	bres, err := c.Query(BaseTuples, "n1", mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bres.Bases) != n-1 {
		t.Fatalf("bases = %d, want %d", len(bres.Bases), n-1)
	}
	// A sequential traversal finds as many bases.
	sres, err := c.Query(BaseTuples, "n1", mc, Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Bases) != len(bres.Bases) {
		t.Fatal("sequential result differs")
	}
}

// TestCycleGuard feeds the traversal an artificially cyclic provenance
// graph (impossible via the maintenance engine, possible from forged
// data) and checks termination with Cycle-marked nodes.
func TestCycleGuard(t *testing.T) {
	e, err := engine.New(`
materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
r1 b(@N,X) :- a(@N,X).
`, []string{"n1"}, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Attach(e)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := e.Node("n1")
	ta := rel.NewTuple("a", rel.Addr("n1"), rel.Int(1))
	tb := rel.NewTuple("b", rel.Addr("n1"), rel.Int(1))
	// Forge: a derived from b, b derived from a.
	ridAB := rel.HashBytes([]byte("ab"))
	ridBA := rel.HashBytes([]byte("ba"))
	n1.Prov.TamperAddProv(ta, provenance.Entry{VID: ta.VID(), RID: ridAB, RLoc: "n1"})
	n1.Prov.TamperAddProv(tb, provenance.Entry{VID: tb.VID(), RID: ridBA, RLoc: "n1"})
	n1.Prov.TamperAddExec(ridAB, "forged1", []rel.Tuple{tb})
	n1.Prov.TamperAddExec(ridBA, "forged2", []rel.Tuple{ta})

	res, err := c.Query(Lineage, "n1", ta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Traversal terminated; somewhere a Cycle marker exists.
	found := false
	var visit func(p *ProofNode)
	visit = func(p *ProofNode) {
		if p.Cycle {
			found = true
		}
		for _, d := range p.Derivs {
			for _, ch := range d.Children {
				visit(ch)
			}
		}
	}
	visit(res.Root)
	if !found {
		t.Fatal("cyclic provenance not marked")
	}
	// Derivation count treats cycles as 0 contributions.
	cres, err := c.Query(DerivCount, "n1", ta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Count != 0 {
		t.Fatalf("cyclic-only derivation count = %d, want 0", cres.Count)
	}
}

// TestMissingExecProducesUnresolvedNode covers traversal over a forged
// derivation whose exec does not exist.
func TestMissingExecProducesUnresolvedNode(t *testing.T) {
	_, c := buildLine(t, 2)
	e := c.eng
	n1, _ := e.Node("n1")
	forged := rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("nX"), rel.Int(9))
	n1.Prov.TamperAddProv(forged, provenance.Entry{
		VID: forged.VID(), RID: rel.HashBytes([]byte("ghost")), RLoc: "n2",
	})
	res, err := c.Query(Lineage, "n1", forged, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The child under the forged derivation is an unresolved carrier
	// with zero count.
	cres, err := c.Query(DerivCount, "n1", forged, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Count != 0 {
		t.Fatalf("count through missing exec = %d", cres.Count)
	}
	if res.Root == nil {
		t.Fatal("no root")
	}
}
