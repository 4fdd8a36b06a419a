// nettrailsd serves provenance queries over HTTP against a live
// NetTrails simulation — the daemon form of the paper's interactive
// demonstration. It boots the same protocol/topology scenarios as
// cmd/nettrails, keeps the simulation advancing with periodic topology
// churn, and publishes an immutable snapshot after every epoch so any
// number of concurrent HTTP readers query consistent virtual instants
// without ever blocking the simulation (see internal/server and
// docs/API.md).
//
// Usage examples:
//
//	nettrailsd -listen 127.0.0.1:8080
//	nettrailsd -protocol pathvector -topology grid -nodes 16 -churn 100ms
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/query \
//	     -d '{"q":"lineage of mincost(@'\''n1'\'','\''n3'\'',2)"}'
//
// With -shard i/N the daemon publishes and serves only its slice of
// the network's provenance partitions; run N such processes and put
// cmd/nettrailsgw in front to federate queries across them (see
// docs/DEPLOYMENT.md for the full topology walkthrough).
//
// The HTTP surface is versioned under /v1/; repro/client is the typed
// Go SDK for it. See docs/API.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	nettrails "repro"
	"repro/internal/buildinfo"
	"repro/internal/protocols"
	"repro/internal/provstore"
	"repro/internal/server"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nettrailsd: "+format+"\n", args...)
	os.Exit(1)
}

// parseShard parses the -shard flag's "i/N" form (0-based index).
// An empty value means unsharded. Parsing is strict — a malformed
// spec must fail the boot, never run as a plausible-looking shard.
func parseShard(s string) (server.ShardSpec, error) {
	if s == "" {
		return server.ShardSpec{}, nil
	}
	var spec server.ShardSpec
	idx, total, ok := strings.Cut(s, "/")
	if ok {
		var err1, err2 error
		spec.Index, err1 = strconv.Atoi(idx)
		spec.Total, err2 = strconv.Atoi(total)
		ok = err1 == nil && err2 == nil
	}
	if !ok {
		return spec, fmt.Errorf("bad -shard %q (want \"i/N\", e.g. 0/3)", s)
	}
	if spec.Total < 1 || spec.Index < 0 || spec.Index >= spec.Total {
		return spec, fmt.Errorf("bad -shard %q: need 0 <= i < N", s)
	}
	return spec, nil
}

func main() {
	serve := server.DeclareServeFlags()
	protocol := flag.String("protocol", "mincost", "mincost, pathvector, dsr, distancevector")
	topology := flag.String("topology", "line", "line, ring, star, grid, random")
	nodes := flag.Int("nodes", 4, "number of nodes (grid uses the nearest square)")
	cost := flag.Int64("cost", 1, "link cost for regular topologies")
	seed := flag.Int64("seed", 1, "random seed")
	churn := flag.Duration("churn", 200*time.Millisecond, "wall-clock interval between link flaps keeping the simulation advancing (0 disables)")
	retain := flag.Int("retain", server.DefaultRetain, "how many recent snapshot versions stay pinnable")
	shard := flag.String("shard", "", "serve only shard i of N (\"i/N\", 0-based): publish this slice of the provenance partitions and answer wrong_shard for the rest; federate with nettrailsgw")
	data := flag.String("data", "", "directory for the on-disk snapshot store: every published version persists there, pinned reads of ring-evicted versions fall back to it, and a restart resumes the version sequence (empty disables)")
	storeRetain := flag.Int("store-retain", 0, "how many newest versions the snapshot store keeps on disk; older segments are deleted whole (0 keeps everything; needs -data)")
	storeSync := flag.Int("store-sync", 1, "fsync the snapshot store every N appended versions (1 = every version durable before it is served; needs -data)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.PrintVersion("nettrailsd")
		return
	}

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

	spec, err := parseShard(*shard)
	if err != nil {
		fail("%v", err)
	}

	for _, e := range edges {
		if err := sys.AddLink(e.A, e.B, e.Cost); err != nil {
			fail("%v", err)
		}
	}
	var store *provstore.Store
	if *data != "" {
		all := sys.Engine.Nodes()
		store, err = provstore.Open(*data, provstore.Options{
			AllNodes:  all,
			Owned:     spec.OwnedNodes(all),
			Shard:     provstore.ShardInfo{Index: spec.Index, Total: spec.Total},
			Retain:    *storeRetain,
			SyncEvery: *storeSync,
		})
		if err != nil {
			fail("%v", err)
		}
	} else if *storeRetain != 0 || *storeSync != 1 {
		fail("-store-retain/-store-sync need -data")
	}
	pub, err := server.NewPublisherWithOptions(sys.Engine,
		server.PublisherOptions{Retain: *retain, Shard: spec, Store: store})
	if err != nil {
		fail("%v", err)
	}
	srv := server.New(pub, serve.Info(*protocol))

	ln, err := net.Listen("tcp", *serve.Listen)
	if err != nil {
		fail("%v", err)
	}
	snap := pub.Current()
	shardNote := ""
	if !spec.Unsharded() {
		shardNote = fmt.Sprintf(" shard=%s owned=%d", spec, len(snap.Nodes))
	}
	fmt.Printf("nettrailsd: listening on http://%s (protocol=%s nodes=%d links=%d version=%d%s)\n",
		ln.Addr(), *protocol, n, len(edges), snap.Version, shardNote)
	if store != nil {
		oldest, _ := pub.Versions()
		fmt.Printf("nettrailsd: snapshot store at %s (versions %d-%d durable)\n",
			*data, oldest, store.DurableVersion())
	}
	if !spec.Unsharded() && *churn > 0 {
		// Wall-clock churn ticks independently per process, so sibling
		// shards drift apart and gateway pins degrade to
		// snapshot_evicted. Deterministic sharded serving wants a
		// frozen topology (or identical external stimulus).
		fmt.Printf("nettrailsd: warning: -churn %s with -shard %s lets shard versions drift; use -churn 0 for aligned snapshots\n",
			*churn, spec)
	}

	// The churn goroutine is the simulation thread: from here on, only
	// it touches the engine. It keeps virtual time (and snapshot
	// versions) moving by flapping one topology link per tick; every
	// epoch inside each flap publishes a fresh consistent snapshot for
	// the HTTP readers. churnDone signals that the goroutine has fully
	// stopped — never mid-epoch — so shutdown tears nothing out from
	// under a running flap.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	if *churn > 0 && len(edges) > 0 {
		go func() {
			defer close(churnDone)
			tick := time.NewTicker(*churn)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				e := edges[i%len(edges)]
				if err := sys.RemoveLink(e.A, e.B, e.Cost); err != nil {
					fail("churn remove %s-%s: %v", e.A, e.B, err)
				}
				if err := sys.AddLink(e.A, e.B, e.Cost); err != nil {
					fail("churn re-add %s-%s: %v", e.A, e.B, err)
				}
			}
		}()
	} else {
		close(churnDone)
	}

	// Graceful shutdown stops the churn loop at an epoch boundary before
	// the HTTP drain.
	err = server.ServeUntilSignal(context.Background(), "nettrailsd", ln, srv.Handler(), *serve.Drain, func() {
		close(stop)
		<-churnDone
		pub.Detach()
		if store != nil {
			// The simulation thread is stopped; make everything published
			// durable before the HTTP drain (readers may still hit the
			// store's mmapped segments until Serve returns, so it is
			// closed only after the drain).
			if err := store.Sync(); err != nil {
				fmt.Fprintf(os.Stderr, "nettrailsd: store sync: %v\n", err)
			}
		}
	})
	if err != nil {
		fail("%v", err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fail("store close: %v", err)
		}
	}
	fmt.Println("nettrailsd: stopped")
}
