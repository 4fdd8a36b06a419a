// Figure 2 walkthrough: the paper's interactive exploration of MINCOST
// provenance — (a) the system-wide snapshot at time T, (b) the selected
// table, (c) the close-up of one tuple with attributes and location —
// followed by a link failure showing incremental recomputation of both
// state and provenance.
package main

import (
	"fmt"
	"log"

	nettrails "repro"
	"repro/internal/server"
	"repro/internal/viz"
)

func main() {
	// A diamond with a shortcut: two equal-cost ways from n1 to n4.
	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(4))
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range []struct {
		a, b string
		c    int64
	}{
		{"n1", "n2", 1}, {"n1", "n3", 1}, {"n2", "n4", 1}, {"n3", "n4", 1},
	} {
		if err := sys.AddLink(l.a, l.b, l.c); err != nil {
			log.Fatal(err)
		}
	}
	pub, err := server.NewPublisher(sys.Engine, server.DefaultRetain)
	if err != nil {
		log.Fatal(err)
	}
	snap := pub.Current()

	// (a) system-wide snapshot at time T.
	fmt.Println("== (a) system-wide snapshot ==")
	fmt.Println(viz.SnapshotSummary(snap.Time, snap.Nodes, func(n string) (int, int) {
		info, _ := snap.NodeInfo(n)
		return info.Tuples, info.Prov.ProvEntries
	}))

	// (b) the mincost table at n1.
	fmt.Println("\n== (b) tables at n1 ==")
	tables, _ := snap.NodeTables("n1")
	info, _ := snap.NodeInfo("n1")
	fmt.Print(viz.TablesView("n1", snap.Time, tables, info.Prov))

	// (c) close-up of one tuple + its provenance.
	mc := nettrails.Tuple("mincost",
		nettrails.Addr("n1"), nettrails.Addr("n4"), nettrails.Int(2))
	fmt.Println("\n== (c) tuple close-up ==")
	fmt.Print(nettrails.RenderTupleCard(mc, "n1"))

	res, err := sys.Lineage("n1", mc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== provenance (focused, depth 3) ==")
	fmt.Print(nettrails.RenderProofFocused(res.Root, 3))

	cnt, err := sys.DerivationCount("n1", mc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalternative derivations: %d (two equal-cost paths)\n", cnt.Count)

	// Topology change: break one path; provenance follows.
	fmt.Println("\n== removing link n2-n4 ==")
	if err := sys.RemoveLink("n2", "n4", 1); err != nil {
		log.Fatal(err)
	}
	cnt, err = sys.DerivationCount("n1", mc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alternative derivations now: %d (only the n3 path remains)\n", cnt.Count)
	res, err = sys.Lineage("n1", mc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(nettrails.RenderProof(res.Root))
}
