package nettrails_test

import (
	"crypto/sha256"
	"fmt"
	"os/exec"
	"strings"
	"testing"

	nettrails "repro"
	"repro/internal/provquery"
	"repro/internal/routeviews"
	"repro/internal/server"
)

// TestArchitectureEndToEnd is experiment E1 (the paper's Figure 1): all
// components wired together — NDlog program, distributed execution,
// provenance maintenance, log store (the publisher's version ring),
// distributed query, visualization.
func TestArchitectureEndToEnd(t *testing.T) {
	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(3))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := server.NewPublisher(sys.Engine, server.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	afterFirst := pub.Current().Version
	if err := sys.AddLink("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	afterSecond := pub.Current().Version
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n3"), nettrails.Int(2))
	ts, err := sys.Tuples("n1", "mincost")
	if err != nil || len(ts) != 2 {
		t.Fatalf("mincost = %v (%v)", ts, err)
	}
	// Query every type.
	lin, err := sys.Lineage("n1", mc)
	if err != nil || lin.Root.Size() < 4 {
		t.Fatalf("lineage = %+v (%v)", lin, err)
	}
	bases, err := sys.BaseTuples("n1", mc)
	if err != nil || len(bases.Bases) == 0 {
		t.Fatalf("bases = %+v (%v)", bases, err)
	}
	nodes, err := sys.ParticipatingNodes("n1", mc)
	if err != nil || len(nodes.Nodes) == 0 {
		t.Fatalf("nodes = %+v (%v)", nodes, err)
	}
	cnt, err := sys.DerivationCount("n1", mc)
	if err != nil || cnt.Count != 1 {
		t.Fatalf("count = %+v (%v)", cnt, err)
	}
	// Log store + viz: every AddLink published new versions, the live
	// queries above none, and version 1 still reads the pre-link state.
	if afterFirst <= 1 || afterSecond <= afterFirst {
		t.Fatalf("versions after each AddLink = %d, %d; want 1 < first < second", afterFirst, afterSecond)
	}
	if _, newest := pub.Versions(); newest != afterSecond {
		t.Fatalf("newest version = %d after read-only queries, want %d", newest, afterSecond)
	}
	v1, ok := pub.At(1)
	if !ok {
		t.Fatal("version 1 not retained")
	}
	if info, ok := v1.NodeInfo("n1"); !ok || info.Tuples != 0 || len(info.Neighbors) != 0 {
		t.Fatalf("version 1 info of n1 = %+v (%v), want the empty pre-link node", info, ok)
	}
	mid, _ := pub.At(afterFirst)
	if tables, _ := mid.NodeTables("n1"); tables["mincost"].Len() != 1 || tables["link"].Len() != 1 {
		t.Fatalf("version %d tables of n1 = %v, want one link and one mincost row", afterFirst, tables)
	}
	snapLin, err := pub.Current().Query(provquery.Lineage, "n1", mc, provquery.Options{})
	if err != nil || nettrails.RenderProof(snapLin.Root) != nettrails.RenderProof(lin.Root) {
		t.Fatalf("published lineage differs from the live one (%v)", err)
	}
	proof := nettrails.RenderProof(lin.Root)
	if !strings.Contains(proof, "mincost(@n1, n3, 2)") {
		t.Fatalf("proof render:\n%s", proof)
	}
	topo := sys.RenderTopology()
	if !strings.Contains(topo, "n1 -- n2") {
		t.Fatalf("topology render:\n%s", topo)
	}
	card := nettrails.RenderTupleCard(mc, "n1")
	if !strings.Contains(card, "location n1") {
		t.Fatalf("card render:\n%s", card)
	}
	focused := nettrails.RenderProofFocused(lin.Root, 1)
	if !strings.Contains(focused, "...") {
		t.Fatalf("focused render:\n%s", focused)
	}
}

func TestRemoveLinkFacade(t *testing.T) {
	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(2))
	if err != nil {
		t.Fatal(err)
	}
	sys.AddLink("n1", "n2", 1)
	if err := sys.RemoveLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	ts, err := sys.Tuples("n1", "mincost")
	if err != nil || len(ts) != 0 {
		t.Fatalf("mincost after removal = %v (%v)", ts, err)
	}
	if _, err := sys.Tuples("zz", "mincost"); err == nil {
		t.Fatal("unknown node must error")
	}
}

func TestCompileReport(t *testing.T) {
	src, loc, aug, err := nettrails.CompileReport(nettrails.MinCost)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "mc2 cost") {
		t.Fatalf("source:\n%s", src)
	}
	if !strings.Contains(loc, "mc2_loc1") || !strings.Contains(loc, "mc2_loc2") {
		t.Fatalf("localized missing split rules:\n%s", loc)
	}
	if !strings.Contains(aug, "ruleExec") || !strings.Contains(aug, "f_mkvid") {
		t.Fatalf("provenance rewrite:\n%s", aug)
	}
	if _, _, _, err := nettrails.CompileReport("bad ("); err == nil {
		t.Fatal("bad program must error")
	}
}

func TestProgramFactsLoadedBySystem(t *testing.T) {
	prog := nettrails.MinCost + `
f1 link(@'n1','n2',2).
f2 link(@'n2','n1',2).
`
	sys, err := nettrails.NewSystem(prog, nettrails.NodeNames(2))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sys.Tuples("n1", "mincost")
	if err != nil || len(ts) != 1 {
		t.Fatalf("mincost = %v (%v)", ts, err)
	}
}

func TestQueryTextFacade(t *testing.T) {
	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(3))
	if err != nil {
		t.Fatal(err)
	}
	sys.AddLink("n1", "n2", 1)
	sys.AddLink("n2", "n3", 1)
	res, err := sys.QueryText("bases of mincost(@'n1','n3',2) with cache")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bases) != 2 {
		t.Fatalf("bases = %v", res.Bases)
	}
	if _, err := sys.QueryText("gibberish"); err == nil {
		t.Fatal("bad query must error")
	}
}

func TestDeletionSafetyFacade(t *testing.T) {
	for _, prog := range []string{nettrails.MinCost, nettrails.PathVector, nettrails.DSR, nettrails.DistanceVector} {
		w, err := nettrails.DeletionSafety(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != 0 {
			t.Fatalf("demo protocol flagged: %v", w)
		}
	}
	w, err := nettrails.DeletionSafety(`
r1 reach(@N,X,Y) :- edge(@N,X,Y).
r2 reach(@N,X,Z) :- edge(@N,X,Y), reach(@N,Y,Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 {
		t.Fatalf("warnings = %v", w)
	}
	if _, err := nettrails.DeletionSafety("("); err == nil {
		t.Fatal("parse error must propagate")
	}
}

func TestParseTupleFacade(t *testing.T) {
	tp, err := nettrails.ParseTuple(`mincost(@'n1','n3',2)`)
	if err != nil {
		t.Fatal(err)
	}
	if tp.String() != "mincost(@n1, n3, 2)" {
		t.Fatalf("tuple = %s", tp)
	}
	// ('x') names no relation: it is not a fact of the parser's
	// synthetic head label.
	for _, bad := range []string{"", "x(", "x(X)", "a(1). b(2).", "('x')", " ('x')"} {
		if _, err := nettrails.ParseTuple(bad); err == nil {
			t.Errorf("ParseTuple(%q) should fail", bad)
		}
	}
}

func TestBGPDeploymentFacade(t *testing.T) {
	d, err := nettrails.NewBGPDeployment(
		[]string{"AS1", "AS2", "AS3"},
		[]nettrails.ASLink{
			{A: "AS2", B: "AS1", Rel: nettrails.CustomerOf},
			{A: "AS3", B: "AS2", Rel: nettrails.CustomerOf},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Originate("AS1", "10.0.0.0/24"); err != nil {
		t.Fatal(err)
	}
	res, err := d.RouteLineage("AS2", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	proof := nettrails.RenderProof(res.Root)
	for _, want := range []string{"routeEntry(@AS2", "via rule br1", "via rule proxy_transmit", "[base]"} {
		if !strings.Contains(proof, want) {
			t.Fatalf("BGP proof missing %q:\n%s", want, proof)
		}
	}
}

// TestTracePinned pins the trace E4 replays (README's "E4 BGP trace"
// row): 200 events, seed 1, over the paper's 5-AS deployment. The
// constant was taken from a generator whose prefix pool, withdrawal
// probability and burst count were still options.
func TestTracePinned(t *testing.T) {
	d, err := nettrails.NewBGPDeployment([]string{"AS1", "AS2", "AS3", "AS4", "AS5"}, []nettrails.ASLink{
		{A: "AS1", B: "AS2", Rel: nettrails.PeerOf}, {A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
		{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf}, {A: "AS3", B: "AS5", Rel: nettrails.CustomerOf},
		{A: "AS4", B: "AS5", Rel: nettrails.CustomerOf}})
	if err != nil {
		t.Fatal(err)
	}
	events, err := d.GenerateTrace(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintln(h, ev)
	}
	const want = "0960b020373b5233fc4f03ff89fc03006c1294131b6a3d7e08a1e6cdab576168"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("GenerateTrace(200, 1): sha256 %s, want %s", got, want)
	}
}

func TestBGPTraceReplay(t *testing.T) {
	d, err := nettrails.NewBGPDeployment(
		[]string{"AS1", "AS2", "AS3"},
		[]nettrails.ASLink{
			{A: "AS2", B: "AS1", Rel: nettrails.CustomerOf},
			{A: "AS3", B: "AS2", Rel: nettrails.CustomerOf},
		})
	if err != nil {
		t.Fatal(err)
	}
	events, err := d.GenerateTrace(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ReplayTrace(events); err != nil {
		t.Fatal(err)
	}
	// Provenance invariants hold everywhere after the replay.
	for _, as := range d.Eng.Nodes() {
		n, _ := d.Eng.Node(as)
		if err := n.Prov.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", as, err)
		}
	}
	// The live prefixes at the end are exactly those the trace leaves
	// announced; the trace withdraws only live prefixes, from their
	// current origin.
	live := map[string]string{}
	for i, ev := range events {
		if ev.Type == routeviews.Announce {
			live[ev.Prefix] = ev.Origin
			continue
		}
		if live[ev.Prefix] != ev.Origin {
			t.Fatalf("event %d withdraws %s from %s, live origin %q", i, ev.Prefix, ev.Origin, live[ev.Prefix])
		}
		delete(live, ev.Prefix)
	}
	for prefix, origin := range live {
		if p, ok := d.Speakers[origin].BestPath(prefix); !ok || len(p) != 1 {
			t.Fatalf("origin %s lost its own prefix %s (%v %v)", origin, prefix, p, ok)
		}
	}
}

// TestSystemParallelismDeterminism is the system-level determinism
// regression: a full System (engine + provenance + query service) run
// through the epoch scheduler — selected by a no-op epoch observer —
// must end in exactly the state of a run through the serial loop
// beside it — identical tables, provenance digests, and query
// answers — for the same seed.
func TestSystemParallelismDeterminism(t *testing.T) {
	build := func(epochLoop bool) *nettrails.System {
		sys, err := nettrails.NewSystem(nettrails.PathVector, nettrails.NodeNames(8),
			nettrails.Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if epochLoop {
			sys.Engine.SetEpochObserver(func() {})
		}
		for i := 1; i < 8; i++ {
			a := nettrails.NodeNames(8)[i-1]
			b := nettrails.NodeNames(8)[i]
			if err := sys.AddLink(a, b, 1); err != nil {
				t.Fatal(err)
			}
		}
		// Churn: fail and restore a middle link.
		if err := sys.RemoveLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	serial := build(false)
	epoch := build(true)

	for _, node := range serial.Engine.Nodes() {
		sn, _ := serial.Engine.Node(node)
		pn, _ := epoch.Engine.Node(node)
		s := sn.RT.Store.Snapshot()
		p := pn.RT.Store.Snapshot()
		if len(s) != len(p) {
			t.Fatalf("%s: %d tuples serial vs %d epoch loop", node, len(s), len(p))
		}
		for i := range s {
			if !s[i].Equal(p[i]) {
				t.Fatalf("%s: tuple %d diverged: %v vs %v", node, i, s[i], p[i])
			}
		}
		if sn.Prov.Digest() != pn.Prov.Digest() {
			t.Fatalf("%s: provenance digests diverged", node)
		}
	}
	// Queries over the epoch-loop run answer identically: drill into the
	// converged n1→n8 best path from each system.
	bps, err := serial.Tuples("n1", "bestpath")
	if err != nil || len(bps) == 0 {
		t.Fatalf("bestpath at n1 = %v (%v)", bps, err)
	}
	var probe *int
	for i, bp := range bps {
		if d, ok := bp.Vals[1].AsAddr(); ok && d == "n8" {
			probe = &i
			break
		}
	}
	if probe == nil {
		t.Fatalf("no n1→n8 bestpath in %v", bps)
	}
	sres, err := serial.Lineage("n1", bps[*probe])
	if err != nil {
		t.Fatal(err)
	}
	pres, err := epoch.Lineage("n1", bps[*probe])
	if err != nil {
		t.Fatal(err)
	}
	if sres.Root.Size() != pres.Root.Size() {
		t.Fatalf("lineage sizes diverged: %d vs %d", sres.Root.Size(), pres.Root.Size())
	}
}

// TestBenchModuleBuilds compiles bench/, the benchmark's own module,
// against this tree. `go test ./...` does not descend into another
// module, so without this a change to the API bench/ uses would break
// only `make bench-check`.
func TestBenchModuleBuilds(t *testing.T) {
	cmd := exec.Command("go", "build", "-o", t.TempDir(), "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./... in bench/: %v\n%s", err, out)
	}
}
