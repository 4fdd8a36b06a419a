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
	"repro/internal/provquery"
	"repro/internal/rel"
)

// fakeShard serves one fixed GET /v1/shards document: a server the
// gateway must judge by what it reports, not by what it is. Further
// routes can be added to the returned mux.
func fakeShard(t *testing.T, doc client.Shards) (string, *http.ServeMux) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, mux
}

// TestGatewayRejectsMalformedExec: a shard that answers an exec read
// with "execOk" but no "exec" sent a malformed answer. The query fails
// with the 502 shard_unreachable envelope instead of dropping the
// connection.
func TestGatewayRejectsMalformedExec(t *testing.T) {
	url, mux := fakeShard(t, client.Shards{Version: 1, TimeUs: 1000,
		Shard: client.ShardInfo{Index: 0, Total: 1}, Nodes: []string{"a"}, AllNodes: []string{"a"}})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(client.Health{OK: true, Protocol: "mincost", Version: 1, TimeUs: 1000, Nodes: 1, Oldest: 1})
	})
	const tuple = "link(@'a','b',1)"
	lit, err := provquery.ParseTupleLiteral(tuple)
	if err != nil {
		t.Fatal(err)
	}
	rid := strings.Repeat("ab", 20)
	mux.HandleFunc("POST /v1/prov/read", func(w http.ResponseWriter, r *http.Request) {
		var req client.ProvReadRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		out := client.ProvReads{Version: 1}
		for _, op := range req.Reads {
			res := client.ProvReadResult{ExecOK: true}
			if op.Op == client.ProvReadVertex {
				res = client.ProvReadResult{ProvVertex: client.ProvVertex{TupleOK: true, Tuple: rel.MarshalTuple(lit),
					DerivsOK: true, Derivs: []client.ProvDeriv{{RID: rid, RLoc: "a"}}}}
			}
			out.Results = append(out.Results, res)
		}
		json.NewEncoder(w).Encode(out)
	})
	g, err := gateway.New(context.Background(), []string{url})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	t.Cleanup(gw.Close)
	resp, body := post(t, gw.URL+"/v1/query", `{"q":"lineage of `+tuple+`"}`)
	if resp.StatusCode != http.StatusBadGateway || errorCode(body) != client.CodeShardUnreachable {
		t.Fatalf("malformed exec reply: %d %s, want 502 %s", resp.StatusCode, body, client.CodeShardUnreachable)
	}
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
				urls[i], _ = fakeShard(t, doc)
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
