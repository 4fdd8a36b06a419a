// nettrailsgw is the federating query gateway of a sharded NetTrails
// deployment. Point it at every nettrailsd shard (-peers) and it
// serves the same /v1 query surface as a single daemon — answering
// each query by running the shared provenance graph walk itself and
// fanning batched, version-pinned partition reads out to the shards
// that own each vertex's node (see internal/gateway and
// docs/DEPLOYMENT.md).
//
// Usage:
//
//	nettrailsd -shard 0/3 -churn 0 -listen 127.0.0.1:8081 &
//	nettrailsd -shard 1/3 -churn 0 -listen 127.0.0.1:8082 &
//	nettrailsd -shard 2/3 -churn 0 -listen 127.0.0.1:8083 &
//	nettrailsgw -listen 127.0.0.1:8080 \
//	    -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//	curl -s localhost:8080/v1/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/client"
	"repro/internal/buildinfo"
	"repro/internal/gateway"
	"repro/internal/server"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nettrailsgw: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	serve := server.DeclareServeFlags()
	peers := flag.String("peers", "", "comma-separated base URLs of every nettrailsd shard (required)")
	requireData := flag.Bool("require-data", false, "refuse to start unless every shard runs a durable snapshot store (-data), so deep-history queries and disk-backed pins work deployment-wide")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.PrintVersion("nettrailsgw")
		return
	}
	var urls []string
	for _, u := range strings.Split(*peers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fail("-peers is required (comma-separated shard URLs)")
	}

	// The protocol label travels from the shards: ask one for its
	// health so /v1/healthz reports the same workload name everywhere.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	protocol := ""
	if c, err := client.New(urls[0]); err == nil {
		if h, err := c.Health(ctx); err == nil {
			protocol = h.Protocol
		}
	}
	if *requireData {
		// Deep-history guarantees hold only when every shard persists
		// its slice: a single storeless shard reintroduces
		// snapshot_evicted for any pin that aged out of its ring.
		for _, u := range urls {
			c, err := client.New(u)
			if err == nil {
				var h *client.Health
				if h, err = c.Health(ctx); err == nil && h.Store == nil {
					cancel()
					fail("-require-data: shard %s runs without a snapshot store (start it with -data)", u)
				}
			}
			if err != nil {
				cancel()
				fail("-require-data: shard %s: %v", u, err)
			}
		}
	}

	g, err := gateway.New(ctx, urls, gateway.WithInfo(serve.Info(protocol)))
	cancel()
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *serve.Listen)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("nettrailsgw: listening on http://%s (protocol=%s shards=%d nodes=%d)\n",
		ln.Addr(), protocol, g.Shards(), len(g.Nodes()))

	// Graceful shutdown drains in-flight federated queries; their
	// downstream reads abort with them.
	if err := server.ServeUntilSignal(context.Background(), "nettrailsgw", ln, g.Handler(), *serve.Drain, nil); err != nil {
		fail("%v", err)
	}
	fmt.Println("nettrailsgw: stopped")
}
