package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// A MINCOST variant with a tight cost bound: random-churn tests delete
// links on cyclic topologies, and every deletion climbs the mutual-
// support costs up to the bound before draining (see protocols.MinCost
// for the count-to-infinity discussion). A tight bound keeps the
// worst-case churn small while exercising the same code paths.
const mincostTight = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(mincost, infinity, infinity, keys(1,2)).

mc1 cost(@S,D,C) :- link(@S,D,C).
mc2 cost(@S,D,C) :- link(@S,Z,C1), mincost(@Z,D,C2), S != D, C := C1 + C2, C < 8.
mc3 mincost(@S,D,min<C>) :- cost(@S,D,C).
`

// TestProvenanceCountMatchesTableCount checks the central cross-layer
// invariant of the platform under random topology churn: for every
// visible tuple at every node, the table's derivation count equals the
// total support recorded in the provenance partition. If these ever
// diverge, provenance queries lie about the state.
func TestProvenanceCountMatchesTableCount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := []string{"n1", "n2", "n3", "n4"}
		e, err := New(mincostTight, nodes, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		type edge struct {
			a, b string
			c    int64
		}
		var live []edge
		for step := 0; step < 14; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				ed := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := e.RemoveBiLink(ed.a, ed.b, ed.c); err != nil {
					t.Fatal(err)
				}
			} else {
				a := nodes[rng.Intn(len(nodes))]
				b := nodes[rng.Intn(len(nodes))]
				if a == b || len(live) >= 4 {
					continue
				}
				ed := edge{a, b, 1}
				dup := false
				for _, x := range live {
					if (x.a == ed.a && x.b == ed.b) || (x.a == ed.b && x.b == ed.a) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				live = append(live, ed)
				if err := e.AddBiLink(ed.a, ed.b, ed.c); err != nil {
					t.Fatal(err)
				}
			}
			e.RunQuiescent()
			checkCounts(t, e, seed, step)
			if err := checkCrossNode(e); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

func checkCounts(t *testing.T, e *Engine, seed int64, step int) {
	t.Helper()
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		if err := n.Prov.CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d %s: %v", seed, step, addr, err)
		}
		for _, relName := range n.RT.Store.TableNames() {
			tbl, err := n.RT.Store.Table(relName)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range tbl.Tuples() {
				row, _ := tbl.Get(tp.VID())
				support := n.Prov.SupportCount(tp.VID())
				if row.Count != support {
					t.Fatalf("seed %d step %d %s: %s table count %d != provenance support %d",
						seed, step, addr, tp, row.Count, support)
				}
			}
		}
	}
}

// checkCrossNode checks the partitions against each other, through
// their rendered prov and ruleExec relations only: every derived prov
// row names an execution that exists at its RLoc, and every execution
// is named by some prov row on some node. CheckInvariants covers the
// references inside one partition.
func checkCrossNode(e *Engine) error {
	type execAt struct {
		loc string
		rid rel.ID
	}
	named := map[execAt]bool{}
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		for _, x := range n.Prov.ExecTuples() {
			rid, _ := x.Vals[1].AsID()
			named[execAt{addr, rid}] = false
		}
	}
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		for _, p := range n.Prov.ProvTuples() {
			rid, _ := p.Vals[2].AsID()
			if rid.IsZero() {
				continue // a base entry names no execution
			}
			rloc, _ := p.Vals[3].AsAddr()
			k := execAt{rloc, rid}
			if _, ok := named[k]; !ok {
				return fmt.Errorf("%s: %s names execution %s, which %s does not hold", addr, p, rid.Short(), rloc)
			}
			named[k] = true
		}
	}
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		for _, x := range n.Prov.ExecTuples() {
			if rid, _ := x.Vals[1].AsID(); !named[execAt{addr, rid}] {
				return fmt.Errorf("%s: execution %s supports no prov row on any node", addr, x)
			}
		}
	}
	return nil
}

// TestCrossNodeCheckPassesOnCleanSystems runs checkCrossNode on
// deployments nothing tampered with: a converged line, whose cost
// tuples at n2 rest on executions at n1 and n3, and a ring that loses
// and regains a link, so that real firings were retracted and re-fired.
func TestCrossNodeCheckPassesOnCleanSystems(t *testing.T) {
	t.Run("converged line", func(t *testing.T) {
		e, err := New(mincostTight, []string{"n1", "n2", "n3"}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range [][2]string{{"n1", "n2"}, {"n2", "n3"}} {
			if err := e.AddBiLink(l[0], l[1], 1); err != nil {
				t.Fatal(err)
			}
		}
		e.RunQuiescent()
		if err := checkCrossNode(e); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("ring after churn", func(t *testing.T) {
		e, err := New(mincostTight, []string{"n1", "n2", "n3", "n4"}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range [][2]string{{"n1", "n2"}, {"n2", "n3"}, {"n3", "n4"}, {"n4", "n1"}} {
			if err := e.AddBiLink(l[0], l[1], 1); err != nil {
				t.Fatal(err)
			}
		}
		e.RunQuiescent()
		execs := 0
		for _, addr := range e.Nodes() {
			n, _ := e.Node(addr)
			execs += len(n.Prov.ExecTuples())
		}
		if execs == 0 {
			t.Fatal("a converged ring recorded no executions")
		}
		if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
		if err := checkCrossNode(e); err != nil {
			t.Fatalf("after removing n1-n2: %v", err)
		}
		if err := e.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
		if err := checkCrossNode(e); err != nil {
			t.Fatalf("after restoring n1-n2: %v", err)
		}
	})
}

// TestCrossNodeCheckCatchesForgery plants the inconsistencies
// checkCrossNode exists for into a converged line, through the store's
// tamper hooks.
func TestCrossNodeCheckCatchesForgery(t *testing.T) {
	build := func(t *testing.T) *Engine {
		e, err := New(mincostTight, []string{"n1", "n2", "n3"}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range [][2]string{{"n1", "n2"}, {"n2", "n3"}} {
			if err := e.AddBiLink(l[0], l[1], 1); err != nil {
				t.Fatal(err)
			}
		}
		e.RunQuiescent()
		if err := checkCrossNode(e); err != nil {
			t.Fatalf("converged line: %v", err)
		}
		return e
	}
	forged := rel.NewTuple("cost", rel.Addr("n1"), rel.Addr("n9"), rel.Int(5))
	for _, tc := range []struct {
		name, want string
		plant      func(n1 *Node)
	}{
		{"missing execution", "does not hold", func(n1 *Node) {
			n1.Prov.TamperAddProv(forged, provenance.Entry{VID: forged.VID(), RID: rel.HashBytes([]byte("ghost")), RLoc: "n2"})
		}},
		{"unknown node", "which mallory does not hold", func(n1 *Node) {
			n1.Prov.TamperAddProv(forged, provenance.Entry{VID: forged.VID(), RID: rel.HashBytes([]byte("ghost")), RLoc: "mallory"})
		}},
		{"orphan execution", "supports no prov row", func(n1 *Node) {
			n1.Prov.TamperAddExec(rel.HashBytes([]byte("orphan")), "mc1", []rel.Tuple{forged})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := build(t)
			n1, _ := e.Node("n1")
			tc.plant(n1)
			if err := checkCrossNode(e); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkCrossNode = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}
