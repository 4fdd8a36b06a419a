package gateway_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/gateway"
)

// fakeShard serves one fixed GET /v1/shards document: a server the
// gateway must judge by what it reports, not by what it is.
func fakeShard(t *testing.T, doc client.Shards) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestGatewayRejectsIncoherentDeployment: gateway.New has no discovery
// validation of its own — every incoherent deployment must be refused
// by client.DiscoverShards, including a node that no shard or more than
// one shard claims to own (the routing table is what the shards report).
func TestGatewayRejectsIncoherentDeployment(t *testing.T) {
	shard := func(index, total int, nodes []string, all ...string) client.Shards {
		return client.Shards{Version: 1, Shard: client.ShardInfo{Index: index, Total: total},
			Nodes: nodes, AllNodes: all}
	}
	ab := []string{"a", "b"}
	cases := []struct {
		name   string
		shards []client.Shards
		want   string // substring of the error; "" means the deployment is coherent
	}{
		{"coherent", []client.Shards{
			shard(1, 2, []string{"b"}, ab...), shard(0, 2, []string{"a"}, ab...)}, ""},
		{"wrong total", []client.Shards{
			shard(0, 2, []string{"a"}, ab...), shard(1, 3, []string{"b"}, ab...)}, "reports 3 shards"},
		{"index out of range", []client.Shards{
			shard(0, 2, []string{"a"}, ab...), shard(2, 2, []string{"b"}, ab...)}, "shard index 2 of 2"},
		{"two servers claim one index", []client.Shards{
			shard(0, 2, []string{"a"}, ab...), shard(0, 2, []string{"b"}, ab...)}, "two URLs claim shard 0/2"},
		{"missing index", []client.Shards{ // shards 0 and 2 of 3: nobody speaks for shard 1
			shard(0, 3, []string{"a"}, ab...), shard(2, 3, []string{"b"}, ab...)}, "reports 3 shards, 2 URLs given"},
		{"node lists disagree", []client.Shards{
			shard(0, 2, []string{"a"}, ab...), shard(1, 2, []string{"b"}, "a", "c")}, "disagrees about the network's node list"},
		{"unsorted node list", []client.Shards{
			shard(0, 2, []string{"a"}, "b", "a"), shard(1, 2, []string{"b"}, "b", "a")}, "unsorted node list"},
		{"node claimed by no shard", []client.Shards{
			shard(0, 2, []string{"a"}, ab...), shard(1, 2, nil, ab...)}, "node b is claimed by no shard"},
		{"node claimed by two shards", []client.Shards{
			shard(0, 2, ab, ab...), shard(1, 2, []string{"b"}, ab...)}, "node b is claimed by shards 0 and 1"},
		{"claimed node outside the list", []client.Shards{
			shard(0, 2, []string{"a"}, ab...), shard(1, 2, []string{"b", "z"}, ab...)}, "outside the network's node list"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			urls := make([]string, len(tc.shards))
			for i, doc := range tc.shards {
				urls[i] = fakeShard(t, doc)
			}
			g, err := gateway.New(context.Background(), urls)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("coherent deployment refused: %v", err)
				}
				if g.Shards() != 2 || len(g.Nodes()) != 2 {
					t.Fatalf("gateway over %d shards, %d nodes", g.Shards(), len(g.Nodes()))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("gateway.New error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
