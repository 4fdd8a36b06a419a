package protocols

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rel"
	"repro/internal/simnet"
)

func find(ts []rel.Tuple, substr string) bool {
	for _, t := range ts {
		if strings.Contains(t.String(), substr) {
			return true
		}
	}
	return false
}

func nodeTuples(t *testing.T, e *engine.Engine, addr, relName string) []rel.Tuple {
	t.Helper()
	n, ok := e.Node(addr)
	if !ok {
		t.Fatalf("no node %s", addr)
	}
	ts, err := n.Tuples(relName)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTopologyByName covers the name table the command-line tools
// share: a grid rounds its node count up to a square, and an unknown
// name is an error naming it.
func TestTopologyByName(t *testing.T) {
	for _, c := range []struct {
		name         string
		n, wantNodes int
		wantEdges    int
	}{
		{"line", 4, 4, 3},
		{"ring", 4, 4, 4},
		{"star", 5, 5, 4},
		{"grid", 5, 9, 12},
		{"random", 10, 10, 14},
	} {
		edges, nodes, err := Topology(c.name, c.n, 1, 7)
		if err != nil || nodes != c.wantNodes || len(edges) != c.wantEdges {
			t.Errorf("Topology(%s, %d) = %d edges, %d nodes, %v; want %d, %d", c.name, c.n, len(edges), nodes, err, c.wantEdges, c.wantNodes)
		}
	}
	if _, _, err := Topology("torus", 4, 1, 1); err == nil || err.Error() != `unknown topology "torus"` {
		t.Errorf("unknown topology: %v", err)
	}
	for name, prog := range Programs {
		if prog == "" {
			t.Errorf("protocol %s has no program", name)
		}
	}
}

func TestTopologyGenerators(t *testing.T) {
	if got := LineTopology(4, 1); len(got) != 3 {
		t.Fatalf("line = %v", got)
	}
	if got := RingTopology(4, 1); len(got) != 4 {
		t.Fatalf("ring = %v", got)
	}
	if got := RingTopology(2, 1); len(got) != 1 {
		t.Fatalf("2-ring = %v", got)
	}
	if got := StarTopology(5, 1); len(got) != 4 {
		t.Fatalf("star = %v", got)
	}
	if got := GridTopology(2, 3, 1); len(got) != 7 { // 2*2 horizontal + 3 vertical
		t.Fatalf("grid = %v (%d)", got, len(got))
	}
	r1 := RandomTopology(10, 5, 4, 7)
	r2 := RandomTopology(10, 5, 4, 7)
	if len(r1) != len(r2) || len(r1) != 14 { // 9 tree + 5 extra
		t.Fatalf("random sizes = %d, %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("random topology not deterministic")
		}
	}
	// Connectivity: union-find over edges.
	parent := map[string]string{}
	var findRoot func(string) string
	findRoot = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		parent[x] = findRoot(parent[x])
		return parent[x]
	}
	for _, e := range r1 {
		parent[findRoot(e.A)] = findRoot(e.B)
	}
	root := findRoot(NodeName(1))
	for i := 2; i <= 10; i++ {
		if findRoot(NodeName(i)) != root {
			t.Fatalf("random topology disconnected at %s", NodeName(i))
		}
	}
}

func TestPathVectorComputesBestPaths(t *testing.T) {
	e, err := Build(PathVector, NodeNames(4), LineTopology(4, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bp := nodeTuples(t, e, "n1", "bestpath")
	if !find(bp, "bestpath(@n1, n4, 3, [n1, n2, n3, n4])") {
		t.Fatalf("n1 bestpath = %v", bp)
	}
	// Loop avoidance: no path visits a node twice.
	for _, tp := range nodeTuples(t, e, "n2", "path") {
		lst, _ := tp.Vals[3].AsList()
		seen := map[string]bool{}
		for _, v := range lst {
			s, _ := v.AsAddr()
			if seen[s] {
				t.Fatalf("looping path %s", tp)
			}
			seen[s] = true
		}
	}
}

func TestPathVectorPrefersCheapRoute(t *testing.T) {
	edges := []Edge{
		{A: "n1", B: "n2", Cost: 1},
		{A: "n2", B: "n3", Cost: 1},
		{A: "n1", B: "n3", Cost: 10},
	}
	e, err := Build(PathVector, NodeNames(3), edges, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bp := nodeTuples(t, e, "n1", "bestpath")
	if !find(bp, "bestpath(@n1, n3, 2, [n1, n2, n3])") {
		t.Fatalf("n1 bestpath = %v", bp)
	}
	if find(bp, "bestpath(@n1, n3, 10") {
		t.Fatalf("expensive path selected: %v", bp)
	}
}

func TestPathVectorLinkFailureReroutes(t *testing.T) {
	edges := []Edge{
		{A: "n1", B: "n2", Cost: 1},
		{A: "n2", B: "n3", Cost: 1},
		{A: "n1", B: "n3", Cost: 10},
	}
	e, err := Build(PathVector, NodeNames(3), edges, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveBiLink("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	bp := nodeTuples(t, e, "n1", "bestpath")
	if !find(bp, "bestpath(@n1, n3, 10, [n1, n3])") {
		t.Fatalf("n1 bestpath after failure = %v", bp)
	}
	if find(bp, "[n1, n2, n3]") {
		t.Fatalf("stale path survived: %v", bp)
	}
}

func TestDSRRoutesOnStaticTopology(t *testing.T) {
	e, err := Build(DSR, NodeNames(4), LineTopology(4, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	routes := nodeTuples(t, e, "n1", "route")
	if !find(routes, "route(@n1, n4, [n1, n2, n3, n4])") {
		t.Fatalf("n1 routes = %v", routes)
	}
}

// TestDSRMobileNetwork is the paper's "mobile network" configuration:
// nodes move under the waypoint model; link churn feeds the protocol,
// and provenance stays consistent throughout.
func TestDSRMobileNetwork(t *testing.T) {
	nodes := NodeNames(5)
	e, err := engine.New(DSR, nodes, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := simnet.NewMobilityModel(e.Net, 11, 100, 100, 45, 12)
	live := map[[2]string]bool{}
	m.OnLinkUp = func(a, b string) {
		live[[2]string{a, b}] = true
		if err := e.AddBiLink(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	m.OnLinkDown = func(a, b string) {
		delete(live, [2]string{a, b})
		if err := e.RemoveBiLink(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	m.Scatter()
	e.RunQuiescent()
	for step := 0; step < 15; step++ {
		m.Step()
		e.RunQuiescent()
		// Invariant: link table mirrors radio adjacency exactly.
		links := e.GlobalTuples("link")
		if len(links) != 2*len(live) {
			t.Fatalf("step %d: %d link tuples for %d adjacencies", step, len(links), len(live))
		}
		// Provenance invariants hold at every node.
		for _, addr := range e.Nodes() {
			n, _ := e.Node(addr)
			if err := n.Prov.CheckInvariants(); err != nil {
				t.Fatalf("step %d %s: %v", step, addr, err)
			}
		}
	}
	// Routes must be consistent with a from-scratch run on the final
	// adjacency.
	fresh, err := engine.New(DSR, nodes, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pair := range live {
		if err := fresh.AddBiLink(pair[0], pair[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	fresh.RunQuiescent()
	a := tuplesKey(e.GlobalTuples("route"))
	b := tuplesKey(fresh.GlobalTuples("route"))
	if a != b {
		t.Fatalf("incremental route state diverges from recompute:\n%s\nvs\n%s", a, b)
	}
}

func tuplesKey(ts []rel.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDistanceVectorConverges(t *testing.T) {
	e, err := Build(DistanceVector, NodeNames(4), RingTopology(4, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bc := nodeTuples(t, e, "n1", "bestcost")
	// Ring of 4: opposite node at cost 2, neighbors at 1.
	if !find(bc, "bestcost(@n1, n3, 2)") || !find(bc, "bestcost(@n1, n2, 1)") || !find(bc, "bestcost(@n1, n4, 1)") {
		t.Fatalf("n1 bestcost = %v", bc)
	}
}

func TestDistanceVectorBoundPreventsCountToInfinity(t *testing.T) {
	e, err := Build(DistanceVector, NodeNames(3), LineTopology(3, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Partition n3: all state about n3 must drain (bounded churn).
	if err := e.RemoveBiLink("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	bc := nodeTuples(t, e, "n1", "bestcost")
	if find(bc, "n3") {
		t.Fatalf("unreachable destination survived: %v", bc)
	}
}

func TestMincostGridAllPairs(t *testing.T) {
	e, err := Build(MinCost, NodeNames(9), GridTopology(3, 3, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Corner-to-corner manhattan distance is 4.
	mc := nodeTuples(t, e, "n1", "mincost")
	if !find(mc, "mincost(@n1, n9, 4)") {
		t.Fatalf("n1 mincost = %v", mc)
	}
	// Every node reaches every other node: 8 destinations each.
	for _, addr := range e.Nodes() {
		got := nodeTuples(t, e, addr, "mincost")
		if len(got) != 8 {
			t.Fatalf("%s has %d mincost rows", addr, len(got))
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("bad (", NodeNames(2), nil, engine.DefaultOptions()); err == nil {
		t.Fatal("bad program must error")
	}
	if _, err := Build(MinCost, NodeNames(2), []Edge{{A: "n1", B: "zz", Cost: 1}}, engine.DefaultOptions()); err == nil {
		t.Fatal("edge to unknown node must error")
	}
}

// TestMincostFlapAllocationBudget holds the maintenance path to an
// allocation budget: one remove + re-add of an inner edge of a 4x4
// MINCOST grid, provenance on, every node's provenance view advanced
// after each half (what a publisher does). The budget is the count
// measured once a delta in flight stopped allocating per message — the
// event queue holds messages by value, a sent firing is passed by value
// and the runtime's delta queue keeps its capacity (1,507; the commit
// before measured 2,187) — times 1.2: boxing a queued message again,
// minting a RID or a VID list a second time per firing, or
// cloning view buckets as maps again, fails here rather than in a
// benchmark run.
func TestMincostFlapAllocationBudget(t *testing.T) {
	const budget = 1507 * 1.2
	edges := GridTopology(4, 4, 1)
	e, err := Build(MinCost, NodeNames(16), edges, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	edge := edges[len(edges)/2]
	advanceViews := func() {
		for _, addr := range e.Nodes() {
			n, _ := e.Node(addr)
			n.Prov.View()
		}
	}
	flap := func() {
		if err := e.RemoveBiLink(edge.A, edge.B, edge.Cost); err != nil {
			t.Fatal(err)
		}
		advanceViews()
		if err := e.AddBiLink(edge.A, edge.B, edge.Cost); err != nil {
			t.Fatal(err)
		}
		advanceViews()
	}
	flap() // first flap grows tables and directories to their steady size
	if got := testing.AllocsPerRun(5, flap); got > budget {
		t.Fatalf("one edge flap allocates %.0f times, budget %.0f", got, budget)
	}
}
