// apiclient demonstrates the public Go SDK (repro/client) against the
// v1 HTTP API: it boots the quickstart scenario (MINCOST on a 3-node
// line) behind an in-process HTTP server, then drives it exactly like
// a remote consumer of cmd/nettrailsd would — typed queries, snapshot
// pinning, batch evaluation with the shared result cache, Graphviz
// export, and context-aware cancellation.
//
// Run it with:
//
//	go run ./examples/apiclient
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	nettrails "repro"
	"repro/client"
	"repro/internal/server"
)

func main() {
	// Boot the quickstart scenario and serve it — stand-in for a
	// running `nettrailsd -protocol mincost -topology line -nodes 3`.
	sys, err := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(3))
	if err != nil {
		log.Fatal(err)
	}
	must(sys.AddLink("n1", "n2", 1))
	must(sys.AddLink("n2", "n3", 1))
	pub, err := server.NewPublisher(sys.Engine, server.DefaultRetain)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = http.Serve(ln, server.New(pub, server.Info{Protocol: "mincost"}).Handler()) }()

	// The SDK part — everything below works unchanged against a real
	// daemon's printed address.
	ctx := context.Background()
	c, err := client.New("http://" + ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== connected: %s, %d nodes, snapshot version %d ==\n", h.Protocol, h.Nodes, h.Version)

	// Pin the current snapshot: every call given at reads the same
	// immutable instant, no matter how far the simulation advances.
	at := client.At(h.Version)

	fmt.Println("\n== lineage of mincost(@'n1','n3',2) ==")
	res, err := c.Lineage(ctx, "mincost(@'n1','n3',2)", at)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Text)
	fmt.Printf("   (modeled cost: %d msgs, %d bytes)\n", res.Stats.Messages, res.Stats.Bytes)

	fmt.Println("\n== batch: bases + nodes + count in one round trip ==")
	batch, err := c.QueryBatch(ctx, []client.BatchQuery{
		{Q: "bases of mincost(@'n1','n3',2)"},
		{Q: "nodes of mincost(@'n1','n3',2)"},
		{Type: "count", Tuple: "mincost(@'n1','n3',2)"},
	}, at)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range batch.Results[0].Result.Bases {
		fmt.Printf("   base %s\n", b.Text)
	}
	fmt.Printf("   nodes %v\n", batch.Results[1].Result.Nodes)
	fmt.Printf("   derivations %d\n", *batch.Results[2].Result.Count)
	fmt.Printf("   (%d of %d served from the result cache)\n",
		batch.CacheHits, len(batch.Results))

	fmt.Println("\n== proof as Graphviz DOT (first line) ==")
	dot, err := c.ProofDOT(ctx, "mincost(@'n1','n3',2)", at)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %.60s... (version %d, cache hit: %v)\n", dot.Graph, dot.Version, dot.Cache.Hit)

	// Cancellation is part of the contract: a context deadline aborts
	// the server-side walk and surfaces as a typed error.
	fmt.Println("\n== a 1ns deadline aborts the traversal mid-walk ==")
	tight, err := client.New("http://"+ln.Addr().String(), client.WithTimeout(time.Nanosecond))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tight.Lineage(ctx, "mincost(@'n1','n3',2)", client.WithOptions(client.Options{Threshold: 99})); err != nil {
		fmt.Printf("   typed error: %v (IsCode query_timeout: %v)\n",
			err, client.IsCode(err, client.CodeQueryTimeout))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
