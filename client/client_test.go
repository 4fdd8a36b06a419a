package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/server"
)

// startServer boots a converged MINCOST grid engine and serves it
// in-process, returning the SDK client, the publisher (for churn), and
// the engine.
func startServer(t *testing.T, side int, opts ...client.Option) (*client.Client, *server.Publisher, *engine.Engine) {
	t.Helper()
	n := side * side
	e, err := protocols.Build(protocols.MinCost, protocols.NodeNames(n),
		protocols.GridTopology(side, side, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := server.NewPublisher(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "mincost"}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, pub, e
}

func TestHealthNodesState(t *testing.T) {
	c, _, _ := startServer(t, 2)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Protocol != "mincost" || h.Nodes != 4 || h.Version == 0 {
		t.Fatalf("health = %+v", h)
	}

	ns, err := c.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Nodes) != 4 || ns.Nodes[0].Addr != "n1" || ns.Nodes[0].Tuples == 0 {
		t.Fatalf("nodes = %+v", ns)
	}

	st, err := c.State(ctx, "n1", client.Rel("mincost"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "n1" || len(st.Tables) != 1 || len(st.Tables["mincost"]) == 0 {
		t.Fatalf("state = %+v", st)
	}

	bi, err := c.ServerVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Module != "repro" || !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("server version = %+v", bi)
	}
}

func TestQueriesAndCacheStats(t *testing.T) {
	c, _, _ := startServer(t, 2)
	ctx := context.Background()

	res, err := c.Query(ctx, "lineage of mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != "lineage" || res.Proof == nil || res.Proof.Tuple.Text != "mincost(@n1, n4, 2)" {
		t.Fatalf("lineage = %+v", res)
	}
	if res.Cache.Hit {
		t.Fatal("first query reported a cache hit")
	}

	// The typed helpers agree with the textual form, and repeats hit
	// the server's per-snapshot cache.
	again, err := c.Lineage(ctx, "mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cache.Hit || again.Cache.Hits == 0 {
		t.Fatalf("repeat lineage cache = %+v", again.Cache)
	}
	if again.Text != res.Text {
		t.Fatal("structured lineage diverged from textual")
	}

	bases, err := c.Bases(ctx, "mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(bases.Bases) == 0 || bases.Bases[0].Rel != "link" {
		t.Fatalf("bases = %+v", bases.Bases)
	}

	nodes, err := c.NodesOf(ctx, "mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes.Nodes) < 3 {
		t.Fatalf("nodes = %+v", nodes.Nodes)
	}

	count, err := c.Count(ctx, "mincost(@'n1','n4',2)", client.WithOptions(client.Options{Threshold: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if count.Count == nil || *count.Count != 1 || !count.Pruned {
		t.Fatalf("pruned count = %+v", count)
	}

	trunc, err := c.Lineage(ctx, "mincost(@'n1','n4',2)", client.WithOptions(client.Options{MaxDepth: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !trunc.Truncated {
		t.Fatalf("maxdepth 1 lineage not truncated: %+v", trunc)
	}
}

// TestSnapshotAffinity: a read At a version keeps returning that
// version after the simulation advances, and a read without At returns
// the current one.
func TestSnapshotAffinity(t *testing.T) {
	c, pub, e := startServer(t, 2)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at := client.At(h.Version)

	// Advance the simulation; pinned calls must stay on the old version.
	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	cur := pub.Current().Version
	if cur == h.Version {
		t.Fatal("simulation did not advance")
	}
	ns, err := c.Nodes(ctx, at)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Version != h.Version {
		t.Fatalf("Nodes At(%d) read version %d", h.Version, ns.Version)
	}
	res, err := c.Lineage(ctx, "mincost(@'n1','n4',2)", at)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != h.Version {
		t.Fatalf("Lineage At(%d) read version %d", h.Version, res.Version)
	}
	now, err := c.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if now.Version != cur {
		t.Fatalf("Nodes without At read version %d, current is %d", now.Version, cur)
	}
}

func TestBatch(t *testing.T) {
	c, _, _ := startServer(t, 3)
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v := h.Version

	res, err := c.QueryBatch(ctx, []client.BatchQuery{
		{Q: "lineage of mincost(@'n1','n9',4)"},
		{Type: "count", Tuple: "mincost(@'n1','n9',4)"},
		{Q: "count of mincost(@'n1','n9',99)"}, // no provenance
		{Q: "lineage of mincost(@'n1','n9',4)"},
	}, client.At(v))
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != v || len(res.Results) != 4 {
		t.Fatalf("batch = version %d, %d results", res.Version, len(res.Results))
	}
	if r := res.Results[0]; r.Err != nil || r.Result.Proof == nil {
		t.Fatalf("results[0] = %+v", r)
	}
	if r := res.Results[1]; r.Err != nil || r.Result.Count == nil {
		t.Fatalf("results[1] = %+v", r)
	}
	if r := res.Results[2]; r.Err == nil || r.Err.Code != client.CodeNoProvenance {
		t.Fatalf("results[2] = %+v", r)
	}
	if r := res.Results[3]; r.Err != nil || r.Result.Proof == nil {
		t.Fatalf("results[3] = %+v", r)
	}
	// The repeated lineage was served from the cache its first
	// occurrence warmed.
	if res.CacheHits == 0 {
		t.Fatalf("batch reported no cache hits: %+v", res)
	}
}

func TestErrorsAreTyped(t *testing.T) {
	c, _, _ := startServer(t, 2)
	ctx := context.Background()

	_, err := c.Nodes(ctx, client.At(999999))
	if !client.IsCode(err, client.CodeSnapshotEvicted) {
		t.Fatalf("evicted version error = %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 410 {
		t.Fatalf("evicted version status = %+v", ae)
	}

	if _, err := c.Lineage(ctx, "mincost(@'n1','n4',99)"); !client.IsCode(err, client.CodeNoProvenance) {
		t.Fatalf("unknown tuple error = %v", err)
	}
	if _, err := c.Query(ctx, "explain of mincost(@'n1','n4',2)"); !client.IsCode(err, client.CodeInvalidQuery) {
		t.Fatalf("bad query error = %v", err)
	}
	if _, err := c.Lineage(ctx, "mincost(@'n1','n4',2)", client.WithOptions(client.Options{MaxDepth: -1})); !client.IsCode(err, client.CodeInvalidOption) {
		t.Fatalf("bad option error = %v", err)
	}
	if _, err := c.State(ctx, "ghost"); !client.IsCode(err, client.CodeUnknownNode) {
		t.Fatalf("unknown node error = %v", err)
	}
}

func TestClientTimeoutAborts(t *testing.T) {
	c, _, _ := startServer(t, 4, client.WithTimeout(time.Nanosecond))
	// A cold corner-to-corner lineage cannot finish within 1ns: the
	// server aborts the walk and reports the structured timeout.
	_, err := c.Lineage(context.Background(), "mincost(@'n1','n16',6)")
	if !client.IsCode(err, client.CodeQueryTimeout) {
		t.Fatalf("timeout error = %v", err)
	}
}

func TestProofDOT(t *testing.T) {
	c, _, _ := startServer(t, 2)
	dot, err := c.ProofDOT(context.Background(), "mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.Graph, "digraph provenance") || dot.Version == 0 {
		t.Fatalf("dot = %+v", dot)
	}
}

// TestAtNodeMatchesTextualAt checks that AtNode sends a structured
// query's start node: at the tuple's home and at another node, the
// answer equals the textual query's with the same "at" clause. At n2
// the tuple has no provenance, so a dropped AtNode would answer n1's
// proof instead of the error.
func TestAtNodeMatchesTextualAt(t *testing.T) {
	c, _, _ := startServer(t, 2)
	ctx := context.Background()
	const tuple = "mincost(@'n1','n4',2)"

	home, err := c.Lineage(ctx, tuple, client.AtNode("n1"))
	if err != nil {
		t.Fatal(err)
	}
	textual, err := c.Query(ctx, "lineage of "+tuple+" at n1")
	if err != nil || textual.Text != home.Text {
		t.Fatalf("at n1: textual %+v (%v), structured text %q", textual, err, home.Text)
	}

	_, serr := c.Lineage(ctx, tuple, client.AtNode("n2"))
	_, terr := c.Query(ctx, "lineage of "+tuple+" at n2")
	var se, te *client.APIError
	if !errors.As(serr, &se) || !errors.As(terr, &te) || *se != *te || se.Code != client.CodeNoProvenance {
		t.Fatalf("at n2: structured %v, textual %v; want the same no_provenance error", serr, terr)
	}
}

// countingTransport counts the requests it forwards.
type countingTransport struct{ n atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestWithHTTPClientCarriesRequests checks that every request of a
// client built WithHTTPClient goes through the supplied transport.
func TestWithHTTPClientCarriesRequests(t *testing.T) {
	ct := &countingTransport{}
	c, _, _ := startServer(t, 2, client.WithHTTPClient(&http.Client{Transport: ct}))
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lineage(ctx, "mincost(@'n1','n4',2)"); err != nil {
		t.Fatal(err)
	}
	if got := ct.n.Load(); got != 2 {
		t.Fatalf("transport carried %d requests, want 2", got)
	}
}
