package nettrails_test

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	nettrails "repro"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provquery"
)

// TestPaperClaims regenerates the demo's results (E2–E8, the provenance
// ablation) as exact counts, checks them cell by cell against README.md's
// "Reproducing the paper's results", the only copy of the numbers, and
// asserts the directions the query options document.
func TestPaperClaims(t *testing.T) {
	got := map[string]int64{}
	put := func(row, cols string, vals ...int) {
		for i, c := range strings.Split(cols, ",") {
			got[row+" / "+c] = int64(vals[i])
		}
	}
	must := func(err error) {
		if t.Helper(); err != nil {
			t.Fatal(err)
		}
	}
	claim := func(ok bool, format string, args ...any) {
		if t.Helper(); !ok {
			t.Errorf(format, args...)
		}
	}
	build := func(program string, n int, edges []protocols.Edge) *nettrails.System {
		sys, err := nettrails.NewSystem(program, nettrails.NodeNames(n))
		must(err)
		for _, e := range edges {
			must(sys.AddLink(e.A, e.B, e.Cost))
		}
		return sys
	}
	query := func(sys *nettrails.System, q string) *provquery.Result {
		res, err := sys.QueryText(q)
		must(err)
		return res
	}

	diamond := []protocols.Edge{{A: "n1", B: "n2", Cost: 1}, {A: "n1", B: "n3", Cost: 1},
		{A: "n2", B: "n4", Cost: 1}, {A: "n3", B: "n4", Cost: 1}}
	sys := build(nettrails.MinCost, 4, diamond)
	lin := query(sys, "lineage of mincost(@'n1','n4',2)").Root
	put("E2 Fig. 2 proof", "vertices,depth,derivations", lin.Size(), lin.Depth(), query(sys, "count of mincost(@'n1','n4',2)").Count)

	for name, prog := range protocols.Programs {
		sys := build(prog, 6, protocols.RingTopology(6, 1))
		sys.Engine.Net.ResetTraffic()
		must(sys.RemoveLink("n2", "n3", 1))
		must(sys.AddLink("n2", "n3", 1))
		msgs, bytes, _ := sys.Engine.Net.Totals()
		put("E3 flap "+name, "msgs,bytes", msgs, bytes)
	}

	peer, cust := nettrails.PeerOf, nettrails.CustomerOf
	bgp, err := nettrails.NewBGPDeployment([]string{"AS1", "AS2", "AS3", "AS4", "AS5"}, []nettrails.ASLink{
		{A: "AS1", B: "AS2", Rel: peer}, {A: "AS1", B: "AS3", Rel: cust}, {A: "AS2", B: "AS4", Rel: cust},
		{A: "AS3", B: "AS5", Rel: cust}, {A: "AS4", B: "AS5", Rel: cust}})
	must(err)
	events, err := bgp.GenerateTrace(200, 1)
	must(err)
	bgp.Eng.Net.ResetTraffic()
	must(bgp.ReplayTrace(events))
	msgs, _, _ := bgp.Eng.Net.Totals()
	put("E4 BGP trace", "msgs,prov entries", msgs, provEntries(bgp.Eng))

	sys = build(nettrails.MinCost, 6, protocols.LineTopology(6, 1))
	for _, typ := range []string{"lineage", "bases", "nodes", "count"} {
		s := query(sys, typ+" of mincost(@'n1','n6',5)").Stats
		put("E5 "+typ, "msgs,bytes", s.Messages, s.Bytes)
		claim(got["E5 lineage / msgs"] == int64(s.Messages) && (typ == "lineage" || got["E5 lineage / bytes"] > int64(s.Bytes)),
			"E5: %s should send lineage's messages in fewer bytes (provgraph.Hop.ResponseSize)", typ)
	}

	stack := slices.Concat(diamond, []protocols.Edge{{A: "n4", B: "n5", Cost: 1}, {A: "n4", B: "n6", Cost: 1},
		{A: "n5", B: "n7", Cost: 1}, {A: "n6", B: "n7", Cost: 1}})
	for name, with := range map[string]string{"none": "", "cache": " with cache", "prune": " with threshold 1",
		"cache+prune": " with cache, threshold 1", "sequential": " with sequential"} {
		sys := build(nettrails.MinCost, 7, stack)
		for _, run := range []string{"cold", "repeated"} {
			s := query(sys, "bases of mincost(@'n1','n7',4)"+with).Stats
			put("E6 "+name+" "+run, "msgs,bytes,cache hits,latency us", s.Messages, s.Bytes, s.CacheHits, int(s.Latency))
		}
	}
	e6 := func(run string) int64 { return got["E6 "+run+" / msgs"] }
	claim(e6("prune cold") < e6("none cold"), "E6: pruning should bound the derivations explored (Options.Threshold)")
	claim(e6("cache repeated") < e6("cache cold"), "E6: a repeated cached query should reuse sub-results (Options.UseCache)")
	claim(e6("cache+prune repeated") <= min(e6("cache repeated"), e6("prune repeated")), "E6: cache+prune should send no more than either alone")
	claim(e6("sequential cold") == e6("none cold"), "E6: sequential should match concurrent's messages (Options.Sequential)")

	for side := 2; side <= 6; side++ {
		sys := build(nettrails.MinCost, side*side, protocols.GridTopology(side, side, 1))
		msgs, bytes, _ := sys.Engine.Net.Totals()
		corner := query(sys, fmt.Sprintf("lineage of mincost(@'n1','n%d',%d)", side*side, 2*(side-1)))
		put(fmt.Sprintf("E7 grid %d nodes", side*side), "conv msgs,conv bytes,prov entries,lineage msgs",
			msgs, bytes, provEntries(sys.Engine), corner.Stats.Messages)
		if side == 4 {
			sys.Engine.Net.ResetTraffic()
			must(sys.RemoveLink("n6", "n7", 1))
			msgs, _, _ := sys.Engine.Net.Totals()
			put("E8 cascade", "msgs", msgs)
		}
	}

	for row, prov := range map[string]bool{"provenance off": false, "provenance on": true} {
		eng, err := protocols.Build(nettrails.MinCost, nettrails.NodeNames(16), protocols.GridTopology(4, 4, 1),
			engine.Options{Seed: 1, Provenance: prov})
		must(err)
		msgs, bytes, _ := eng.Net.Totals()
		put(row, "msgs,bytes,prov entries", msgs, bytes, provEntries(eng))
	}

	want := paperTable(t)
	for _, k := range slices.Sorted(maps.Keys(got)) {
		w, ok := want[k]
		claim(ok, "%s = %d: README.md has no such row and column", k, got[k])
		claim(!ok || w == got[k], "%s = %d, README.md says %d", k, got[k], w)
		delete(want, k)
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		t.Errorf("%s: README.md has a row that no experiment produces", k)
	}
}

// provEntries sums every node's provenance rows (0 without provenance).
func provEntries(eng *engine.Engine) (total int) {
	for _, addr := range eng.Nodes() {
		if n, _ := eng.Node(addr); n.Prov != nil {
			total += n.Prov.Statistics().ProvEntries
		}
	}
	return total
}

// paperTable parses the tables of README.md's results section into
// "row / column" -> value: a table's header names its columns, a row's
// first cell names the row, and thousands separators are ignored.
func paperTable(t *testing.T) map[string]int64 {
	src, err := os.ReadFile("README.md")
	_, sec, ok := strings.Cut(string(src), "\n## Reproducing the paper's results\n")
	if err != nil || !ok {
		t.Fatalf("README.md has no results section (%v)", err)
	}
	out := map[string]int64{}
	for _, block := range strings.Split(strings.Split(sec, "\n## ")[0], "\n\n") {
		lines := strings.Split(strings.TrimSpace(block), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "|") {
			continue
		}
		header := strings.Split(strings.Trim(lines[0], "| "), "|")
		for _, line := range lines[2:] {
			row := strings.Split(strings.Trim(line, "| "), "|")
			if len(row) != len(header) {
				t.Fatalf("README.md row %q has %d cells, its header %d", line, len(row), len(header))
			}
			for i, c := range row[1:] {
				key := strings.TrimSpace(row[0]) + " / " + strings.TrimSpace(header[i+1])
				v, err := strconv.ParseInt(strings.ReplaceAll(strings.TrimSpace(c), ",", ""), 10, 64)
				if _, dup := out[key]; err != nil || dup {
					t.Fatalf("README.md %s: %q is not a number, or the row repeats", key, c)
				}
				out[key] = v
			}
		}
	}
	return out
}
