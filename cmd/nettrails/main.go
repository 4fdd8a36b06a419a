// nettrails runs a declarative protocol over a generated topology,
// then answers provenance queries about the resulting state — the
// command-line version of the paper's demonstration.
//
// Usage examples:
//
//	nettrails -protocol mincost -topology line -nodes 5 \
//	          -query lineage -tuple "mincost(@'n1','n5',4)"
//	nettrails -protocol pathvector -topology ring -nodes 6 -tables n1
//	nettrails -protocol mincost -topology grid -nodes 9 \
//	          -query count -tuple "mincost(@'n1','n9',4)" -threshold 1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	nettrails "repro"
	"repro/internal/buildinfo"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/server"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nettrails: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	protocol := flag.String("protocol", "mincost", "mincost, pathvector, dsr, distancevector")
	topology := flag.String("topology", "line", "line, ring, star, grid, random")
	nodes := flag.Int("nodes", 4, "number of nodes (grid uses the nearest square)")
	cost := flag.Int64("cost", 1, "link cost for regular topologies")
	seed := flag.Int64("seed", 1, "random seed")
	query := flag.String("query", "", "lineage, bases, nodes, count")
	tupleLit := flag.String("tuple", "", "tuple literal, e.g. mincost(@'n1','n3',2)")
	at := flag.String("at", "", "node to query at (default: the tuple's location)")
	threshold := flag.Int("threshold", 0, "prune after N alternative derivations")
	cache := flag.Bool("cache", false, "enable per-node result caching")
	sequential := flag.Bool("seq", false, "sequential (DFS) traversal")
	tables := flag.String("tables", "", "print this node's tables and exit")
	showTopo := flag.Bool("topo", false, "print the topology after convergence")
	textQuery := flag.String("q", "", `textual query, e.g. "lineage of mincost(@'n1','n3',2) with cache"`)
	dot := flag.Bool("dot", false, "emit lineage results as Graphviz DOT instead of a text tree")
	digests := flag.Bool("digests", false, "print per-node snapshot digests after convergence")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.PrintVersion("nettrails")
		return
	}
	emitDOT = *dot

	prog, ok := protocols.Programs[*protocol]
	if !ok {
		fail("unknown protocol %q", *protocol)
	}
	edges, n, err := protocols.Topology(*topology, *nodes, *cost, *seed)
	if err != nil {
		fail("%v", err)
	}

	sys, err := nettrails.NewSystem(prog, nettrails.NodeNames(n),
		nettrails.Config{Seed: *seed})
	if err != nil {
		fail("%v", err)
	}

	var pub *server.Publisher
	if *digests {
		pub, err = server.NewPublisher(sys.Engine, 1)
		if err != nil {
			fail("%v", err)
		}
	}

	start := time.Now()
	for _, e := range edges {
		if err := sys.AddLink(e.A, e.B, e.Cost); err != nil {
			fail("%v", err)
		}
	}
	wall := time.Since(start)
	fmt.Printf("converged: %d nodes, %d links, protocol %s\n", n, len(edges), *protocol)
	msgs, bytes, _ := sys.Engine.Net.Totals()
	fmt.Printf("execution traffic: %d messages, %d bytes\n", msgs, bytes)
	if pub != nil {
		// The run-stats line is deliberately tied to -digests: the
		// default output must stay byte-identical across runs of the
		// same seed, and wall-clock timings are not.
		fmt.Printf("run-stats wall_ns=%d\n", wall.Nanoseconds())
		snap := pub.Current()
		fmt.Printf("snapshot version=%d time=%d\n", snap.Version, snap.Time)
		for _, addr := range snap.Nodes {
			d, ok := snap.NodeDigest(addr)
			if !ok {
				fail("no digest for node %s", addr)
			}
			fmt.Printf("digest %s %s\n", addr, d)
		}
	}

	if *showTopo {
		fmt.Print(sys.RenderTopology())
	}
	if *tables != "" {
		node, ok := sys.Engine.Node(*tables)
		if !ok {
			fail("unknown node %q", *tables)
		}
		for _, relName := range node.RT.Store.TableNames() {
			ts, err := node.Tuples(relName)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("table %s (%d tuples)\n", relName, len(ts))
			for _, t := range ts {
				fmt.Println("  ", t)
			}
		}
		return
	}
	if *textQuery != "" {
		res, err := sys.QueryText(*textQuery)
		if err != nil {
			fail("%v", err)
		}
		printResult(res)
		return
	}
	if *query == "" {
		return
	}
	if *tupleLit == "" {
		fail("-query requires -tuple")
	}
	typ, err := provquery.ParseQueryType(*query)
	if err != nil {
		fail("%v", err)
	}
	t, where, err := server.ResolveTupleAt(*tupleLit, *at)
	if err != nil {
		fail("%v", err)
	}
	opts := nettrails.QueryOptions{UseCache: *cache, Threshold: *threshold, Sequential: *sequential}
	res, err := sys.Query.Query(typ, where, t, opts)
	if err != nil {
		fail("%v", err)
	}
	printResult(res)
}

var emitDOT bool

func printResult(res *provquery.Result) {
	switch res.Type {
	case provquery.Lineage:
		if emitDOT {
			fmt.Print(nettrails.RenderProofDOT(res.Root))
			break
		}
		fmt.Print(nettrails.RenderProof(res.Root))
	case provquery.BaseTuples:
		for _, b := range res.Bases {
			fmt.Printf("%s (at %s)\n", b.Tuple, b.Loc)
		}
	case provquery.Nodes:
		fmt.Println(res.Nodes)
	case provquery.DerivCount:
		fmt.Printf("%d alternative derivations", res.Count)
		if res.Pruned {
			fmt.Print(" (pruned)")
		}
		if res.Truncated {
			fmt.Print(" (truncated: lower bound)")
		}
		fmt.Println()
	}
	fmt.Printf("query cost: %d messages, %d bytes, %dus latency, %d cache hits\n",
		res.Stats.Messages, res.Stats.Bytes, int64(res.Stats.Latency), res.Stats.CacheHits)
}
