package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	nettrails "repro"
	"repro/internal/gateway"
	"repro/internal/routeviews"
	"repro/internal/server"
)

// buildBGP boots one 8-AS BGP deployment and replays the given
// RouteViews-style trace; identical parameters give byte-identical
// state and provenance, which is what lets three shard processes and
// one single process agree to the byte.
func buildBGP(t testing.TB, events []routeviews.Event) *nettrails.BGPDeployment {
	t.Helper()
	ases := make([]string, 8)
	for i := range ases {
		ases[i] = fmt.Sprintf("AS%d", i+1)
	}
	links := []nettrails.ASLink{
		{A: "AS1", B: "AS2", Rel: nettrails.PeerOf},
		{A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
		{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf},
		{A: "AS3", B: "AS5", Rel: nettrails.CustomerOf},
		{A: "AS4", B: "AS6", Rel: nettrails.CustomerOf},
		{A: "AS5", B: "AS7", Rel: nettrails.CustomerOf},
		{A: "AS6", B: "AS8", Rel: nettrails.CustomerOf},
		{A: "AS7", B: "AS8", Rel: nettrails.PeerOf},
	}
	d, err := nettrails.NewBGPDeployment(ases, links, nettrails.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A sentinel prefix outside the generated 10.x pool: never
	// withdrawn, so the queried route exists in the final state.
	if err := d.Originate("AS8", "192.0.2.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := d.ReplayTrace(events); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardedParityBGPTrace is the acceptance check of the sharded
// serving tier: after replaying the 8-AS BGP trace, a 3-shard
// deployment behind a gateway answers all four query types
// byte-identically to the single-process daemon.
func TestShardedParityBGPTrace(t *testing.T) {
	// One deterministic trace, replayed by every process.
	events, err := buildBGP(t, nil).GenerateTrace(40, 1)
	if err != nil {
		t.Fatal(err)
	}

	singlePub, err := server.NewPublisher(buildBGP(t, events).Eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(singlePub, server.Info{Protocol: "bgp"}))
	defer single.Close()

	urls := make([]string, 3)
	var shardPubs []*server.Publisher
	for i := 0; i < 3; i++ {
		pub, err := server.NewPublisherWithOptions(buildBGP(t, events).Eng,
			server.PublisherOptions{Shard: server.ShardSpec{Index: i, Total: 3}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "bgp"}))
		defer ts.Close()
		shardPubs = append(shardPubs, pub)
		urls[i] = ts.URL
	}

	// Epoch agreement: every process minted the same version sequence.
	want := singlePub.Current().Version
	for i, pub := range shardPubs {
		if got := pub.Current().Version; got != want {
			t.Fatalf("shard %d at version %d, single process at %d", i, got, want)
		}
	}

	g, err := gateway.New(context.Background(), urls,
		gateway.WithInfo(server.Info{Protocol: "bgp"}))
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	// The route's provenance spans the customer chain AS8..AS1 — and
	// therefore all three shards. AS addresses are single quoted, the
	// prefix is a double-quoted string (escaped inside JSON).
	tuple := `routeEntry(@'AS1',\"192.0.2.0/24\")`
	for _, q := range []string{
		fmt.Sprintf(`{"q":"lineage of %s"}`, tuple),
		fmt.Sprintf(`{"q":"bases of %s"}`, tuple),
		fmt.Sprintf(`{"q":"nodes of %s"}`, tuple),
		fmt.Sprintf(`{"q":"count of %s"}`, tuple),
		fmt.Sprintf(`{"q":"lineage of %s with threshold 1"}`, tuple),
		fmt.Sprintf(`{"q":"count of %s with dfs"}`, tuple),
	} {
		sResp, sBody := post(t, single.URL+"/v1/query", q)
		gResp, gBody := post(t, gw.URL+"/v1/query", q)
		if sResp.StatusCode != http.StatusOK {
			t.Fatalf("single %s: %d %s", q, sResp.StatusCode, sBody)
		}
		if gResp.StatusCode != sResp.StatusCode || !bytes.Equal(sBody, gBody) {
			t.Fatalf("BGP parity broken for %s:\nsingle %d %s\ngateway %d %s",
				q, sResp.StatusCode, sBody, gResp.StatusCode, gBody)
		}
	}

	// The merged node summary agrees too.
	_, sNodes := get(t, single.URL+"/v1/nodes")
	_, gNodes := get(t, gw.URL+"/v1/nodes")
	if !bytes.Equal(sNodes, gNodes) {
		t.Fatalf("/v1/nodes BGP parity broken:\nsingle %s\ngateway %s", sNodes, gNodes)
	}
}
