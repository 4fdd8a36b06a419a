// replay runs a demo scenario under a snapshot publisher — the Log
// Store: one immutable version of the whole system per state-changing
// epoch — then replays the published versions: the command-line
// analogue of the paper's interactive visualizer session (pause the
// network at a time T, inspect a node's tables, drill into a tuple's
// provenance as of T).
//
// Usage:
//
//	replay -demo mincost           # Figure 2 walkthrough with churn
//	replay -demo bgp               # legacy BGP scenario
//	replay -demo mincost -at 18    # inspect published version 18
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	nettrails "repro"
	"repro/internal/buildinfo"
	"repro/internal/provquery"
	"repro/internal/server"
	"repro/internal/viz"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "replay: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	demo := flag.String("demo", "mincost", "mincost or bgp")
	at := flag.Uint64("at", 0, "inspect published version `v` of the mincost demo (0: list every version)")
	node := flag.String("node", "n1", "node to inspect at -at")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.PrintVersion("replay")
		return
	}

	switch *demo {
	case "mincost":
		runMincost(*at, *node)
	case "bgp":
		runBGP()
	default:
		fail("unknown demo %q", *demo)
	}
}

func runMincost(at uint64, node string) {
	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(4))
	if err != nil {
		fail("%v", err)
	}
	// The publisher is the log store: every epoch that changes state
	// publishes one immutable version of the whole system.
	pub, err := server.NewPublisher(sys.Engine, server.DefaultRetain)
	if err != nil {
		fail("%v", err)
	}
	step := func(name string, err error) {
		if err != nil {
			fail("%s: %v", name, err)
		}
		snap := pub.Current()
		fmt.Printf("%-10s -> version %d (t=%dus)\n", name, snap.Version, int64(snap.Time))
	}
	step("link n1-n2", sys.AddLink("n1", "n2", 1))
	step("link n2-n3", sys.AddLink("n2", "n3", 1))
	step("link n3-n4", sys.AddLink("n3", "n4", 1))
	step("link n1-n4", sys.AddLink("n1", "n4", 5))
	step("fail n2-n3", sys.RemoveLink("n2", "n3", 1))

	oldest, newest := pub.Versions()
	fmt.Printf("published versions %d..%d\n\n", oldest, newest)

	if at != 0 {
		inspect(pub, at, node)
		return
	}
	// Full replay ticker: one line per published version.
	for v := oldest; v <= newest; v++ {
		snap, _ := pub.At(v)
		fmt.Printf("[%d] %s\n", v, viz.SnapshotSummary(snap.Time, snap.Nodes, func(n string) (int, int) {
			info, _ := snap.NodeInfo(n)
			return info.Tuples, info.Prov.ProvEntries
		}))
	}
	fmt.Println("\nfinal topology:")
	fmt.Print(sys.RenderTopology())
}

// inspect pauses at one published version: the node's tables at that
// instant, then the close-up and the proof of its last mincost row (the
// route to the highest-named destination), both read from that version.
func inspect(pub *server.Publisher, version uint64, node string) {
	snap, ok := pub.At(version)
	if !ok {
		oldest, newest := pub.Versions()
		fail("-at %d out of range (published versions %d..%d)", version, oldest, newest)
	}
	tables, ok := snap.NodeTables(node)
	if !ok {
		fail("no node %s at version %d", node, version)
	}
	info, _ := snap.NodeInfo(node)
	fmt.Printf("version %d\n", snap.Version)
	fmt.Print(viz.TablesView(node, snap.Time, tables, info.Prov))
	mcs := tables["mincost"].Tuples()
	if len(mcs) == 0 {
		return
	}
	// Drill into one tuple, as in Figure 2(c).
	mc := mcs[len(mcs)-1]
	fmt.Println()
	fmt.Print(nettrails.RenderTupleCard(mc, node))
	res, err := snap.Query(provquery.Lineage, node, mc, provquery.Options{})
	if err != nil {
		fail("lineage of %s at version %d: %v", mc, version, err)
	}
	fmt.Printf("\nprovenance at version %d (t=%dus):\n", snap.Version, int64(snap.Time))
	fmt.Print(nettrails.RenderProof(res.Root))
}

func runBGP() {
	d, err := nettrails.NewBGPDeployment(
		[]string{"AS1", "AS2", "AS3", "AS4"},
		[]nettrails.ASLink{
			{A: "AS1", B: "AS2", Rel: nettrails.PeerOf},
			{A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
			{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf},
		})
	if err != nil {
		fail("%v", err)
	}
	events, err := d.GenerateTrace(80, 7)
	if err != nil {
		fail("%v", err)
	}
	if err := d.ReplayTrace(events); err != nil {
		fail("%v", err)
	}
	fmt.Printf("replayed %d trace events\n", len(events))
	for _, as := range d.Eng.Nodes() {
		re, err := d.RouteEntries(as)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s: %d routing entries, %d updates sent, %d received\n",
			as, len(re), d.Speakers[as].UpdatesSent, d.Speakers[as].UpdatesReceived)
		if len(re) > 0 {
			prefix, _ := re[0].Vals[1].AsString()
			res, err := d.RouteLineage(as, prefix)
			if err == nil {
				fmt.Printf("  lineage of %s:\n", prefix)
				fmt.Print(indent(nettrails.RenderProofFocused(res.Root, 4), "  "))
			}
		}
	}
}

// indent prefixes every line of s (which ends in a newline) with pad.
func indent(s, pad string) string {
	return pad + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n"+pad) + "\n"
}
