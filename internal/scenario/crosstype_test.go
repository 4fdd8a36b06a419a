package scenario

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	nettrails "repro"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/routeviews"
	"repro/internal/server"
)

// checkQueryTypesAgree is the cross-type oracle: for every tuple of
// the engine's converged state, each of which must have provenance, it
// asks all four query types, unpruned and untruncated, passes the
// lineage through the proof checker, and derives the other three
// answers from the lineage alone:
//   - bases: the tuples of the Base-marked vertices;
//   - nodes: every vertex's Loc and every derivation's RLoc;
//   - count: Base?1:0 + Σ over derivations of Π over children, where
//     cycle, missing and truncated leaves count 0 (they have neither a
//     base mark nor a derivation).
//
// The walk computes each type with its own accumulator; this is what
// says they agree. It returns how many tuples it checked.
func checkQueryTypesAgree(t *testing.T, name string, eng *engine.Engine) int {
	t.Helper()
	pub, err := server.NewPublisher(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Detach()
	snap := pub.Current()
	proofs := newProofChecker(eng, snap)
	checked := 0
	for _, addr := range snap.Nodes {
		tables, _ := snap.NodeTables(addr)
		names := make([]string, 0, len(tables))
		for rel := range tables {
			names = append(names, rel)
		}
		sort.Strings(names)
		for _, relName := range names {
			for _, tup := range tables[relName].Tuples() {
				lin, err := snap.Query(provquery.Lineage, addr, tup, provquery.Options{})
				if errors.Is(err, provquery.ErrNoProvenance) {
					t.Errorf("%s: %s is visible at %s but has no provenance", name, tup, addr)
					continue
				}
				if err != nil {
					t.Fatalf("%s: lineage of %s: %v", name, tup, err)
				}
				body := server.JSONProof(lin.Root)
				if err := proofs.check(&body); err != nil {
					t.Errorf("%s: the lineage of %s is wrong:\n%v", name, tup, err)
				}
				var bases, nodes []string
				count := derive(lin.Root, &bases, &nodes)
				answer := func(typ provquery.QueryType) *provquery.Result {
					res, err := snap.Query(typ, addr, tup, provquery.Options{})
					if err != nil {
						t.Fatalf("%s: %s of %s: %v", name, typ, tup, err)
					}
					return res
				}
				var gotBases []string
				for _, b := range answer(provquery.BaseTuples).Bases {
					gotBases = append(gotBases, b.Tuple.String())
				}
				if want := sortedSet(bases); !slices.Equal(gotBases, want) {
					t.Errorf("%s: bases of %s = %v, the lineage's base vertices are %v", name, tup, gotBases, want)
				}
				if got, want := answer(provquery.Nodes).Nodes, sortedSet(nodes); !slices.Equal(got, want) {
					t.Errorf("%s: nodes of %s = %v, the lineage's locations are %v", name, tup, got, want)
				}
				if got := answer(provquery.DerivCount).Count; got != count {
					t.Errorf("%s: count of %s = %d, the lineage implies %d", name, tup, got, count)
				}
				checked++
			}
		}
	}
	return checked
}

// derive walks a lineage, collecting base tuples and locations, and
// returns the derivation count the tree implies.
func derive(p *provquery.ProofNode, bases, nodes *[]string) int {
	*nodes = append(*nodes, p.Loc)
	n := 0
	if p.Base {
		*bases = append(*bases, p.Tuple.String())
		n = 1
	}
	for _, d := range p.Derivs {
		*nodes = append(*nodes, d.RLoc)
		prod := 1
		for _, c := range d.Children {
			prod *= derive(c, bases, nodes)
		}
		n += prod
	}
	return n
}

func sortedSet(s []string) []string {
	sort.Strings(s)
	return slices.Compact(s)
}

// TestQueryTypesAgree runs the cross-type oracle over the four demo
// protocols on every generated topology, over the final state of every
// catalog scenario, and over a 200-AS BGP deployment.
func TestQueryTypesAgree(t *testing.T) {
	for _, prog := range []string{"mincost", "pathvector", "dsr", "distancevector"} {
		for _, topo := range []string{"line", "ring", "star", "grid", "random"} {
			edges, n, err := protocols.Topology(topo, 6, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := protocols.Build(protocols.Programs[prog], protocols.NodeNames(n), edges, engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if checkQueryTypesAgree(t, prog+"/"+topo, eng) == 0 {
				t.Errorf("%s/%s: no tuple with provenance", prog, topo)
			}
		}
	}
	for _, sc := range Catalog() {
		inst, err := sc.NewInstance()
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Replay(func(string) {}); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if checkQueryTypesAgree(t, sc.Name, inst.Eng) == 0 {
			t.Errorf("%s: no tuple with provenance", sc.Name)
		}
	}
	g, err := routeviews.GenerateASGraph(routeviews.ASGraphOptions{Nodes: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := nettrails.NewBGPDeployment(g.ASes, Links(g), nettrails.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Originate(g.ASes[len(g.ASes)-1-i*25], fmt.Sprintf("10.%d.0.0/16", i)); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("bgp-200: %d tuples", checkQueryTypesAgree(t, "bgp-200", d.Eng))
}
