package gateway_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/provquery"
	"repro/internal/provstore"
	"repro/internal/server"
)

// wireBytesPinned is the SHA-256 of the status line and body of every
// response TestWireBytesPinned sends. The constants were recorded by
// running the test before the v1 documents were declared in one place
// (the repro/client types): a mismatch is a change to the wire schema,
// never a reason to re-pin. One constant was re-recorded on purpose:
// "prov read", when every prov-read result began to carry its reach
// (the executions it reaches inside the shard). With every "reach"
// removed, that reply still hashes to the previous constant,
// 41de54a2c538bcc73ba4ecbfc00dec8b382437e7550ae9ead46815435aa36196.
// The five error cases from "unknown endpoint" on were recorded while
// the server still declared its own error type beside client.APIError.
var wireBytesPinned = map[string]string{
	"healthz daemon":   "1bce65afa541bb73ba0142b9a4f81ce6b6a7962a58c7a6e26f70d7b6ac83ef14",
	"healthz shard":    "529454fcdcf78e2b63bf0172005ff434856a98c31271ea189272b9f2397ed634",
	"healthz gateway":  "0d3abecae6379701be65d079813fc43b0424405d8961bc9159f9819a0653ad63",
	"shards shard":     "87925b3ae0b421bde4236dd5df596e4e91f031908e49c2bb54a0377594367fb1",
	"shards gateway":   "785a9db087d739858ac3cb3eebd184a2c12dc8360291c0dcb88096203093bb50",
	"nodes":            "211fe90dfb51287d7ff9a09ba5ccac3a760b0d7b30ae5dd46d8d5720fd5776a3",
	"state":            "2edced4056830a79c00d89fb324ae7f9130ccfd046b7d92baea031c6fa318f8d",
	"state rel":        "d1173e460a579c911ba3975842d1e2a3187b22b453302577559e30b13f08844d",
	"state t":          "a18628de170431f4a36e909fdaff52f57cb002b6610c338e07301240d001ddfd",
	"history first":    "66092dde725c88a37ebdb02abe1e5cc760afb7e12e061dd6ddfa9df6d4482f11",
	"query lineage":    "055bf009535812f8d201e5fe34c1a061d02894d624990a42c9928d12bfbc94e1",
	"query bases":      "6fffa513ef0f324863a2dc53c08a3ef8022ed8f674c03ff6700f710a3ca16541",
	"query nodes":      "6bef3e8b6502f88d51a912b01239e48ea52fe1ed4bea3bdad0b36d6716152708",
	"query count":      "4e473f73e87e050d13276c4d2608b113f1835eb5a7234343d5c5125f55cfd86a",
	"batch":            "b5729ff02e736e170c1662ad475e4f71b37afff8245d1bad1f5029a92e93e41f",
	"prov read":        "20073e3a21aac78e73355dfb12befde5635757c23762d0797010efa5ec6d85b4",
	"proof.dot":        "94103683e7509fe386020584047a1701497e482f2e02ceee0994bd16ef5565af",
	"error envelope":   "50a65b616238c625b23dd5c01f4d58163ea3553cf41afea9334c5c3ae69c6997",
	"unknown endpoint": "a280bf399e0bddabad5d8016e3c93f306fa3cc4dc4531ca954ee727a65d3cb36",
	"wrong method":     "fbb419ff2d7a223d4d62283b1f5a206a989cbe56c86b52a22dc799afd7d83693",
	"invalid option":   "ff0ee8351afb07767d2ebfe6da12994405a34b3104c92ddd4cc251ad15dd80bb",
	"unminted daemon":  "7f36a0226c01b70fac8322cb9639a7db94f4bb82d6a0de48a2732048dfb77d30",
	"unminted gateway": "2d3ecae06a7e2142769ff03fe25bed29687553350d1bd7cf05bff4199523a841",
}

// storeArm serves one engine through a publisher teeing to a snapshot
// store in dir, as nettrailsd -data does.
func storeArm(t *testing.T, e *engine.Engine, shard server.ShardSpec, dir string) (*server.Publisher, *httptest.Server) {
	t.Helper()
	all := e.Nodes()
	st, err := provstore.Open(dir, provstore.Options{
		AllNodes: all,
		Owned:    shard.OwnedNodes(all),
		Shard:    provstore.ShardInfo{Index: shard.Index, Total: shard.Total},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pub, err := server.NewPublisherWithOptions(e, server.PublisherOptions{Shard: shard, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(pub, server.Info{Protocol: "mincost"}))
	t.Cleanup(ts.Close)
	return pub, ts
}

// TestWireBytesPinned pins the bytes of the /v1 surface: a daemon with
// a store, a 3-shard deployment with stores and a gateway over it serve
// one seeded 3x3 MINCOST run with one link flap, and every response
// must hash to its recorded constant. TestTierConformance compares the
// tiers with each other; this catches a change both tiers make together.
func TestWireBytesPinned(t *testing.T) {
	dir := t.TempDir()
	daemonPub, daemon := storeArm(t, buildGrid(t, 3), server.ShardSpec{}, filepath.Join(dir, "single"))
	engines := []*engine.Engine{daemonPub.Engine()}
	var shards []*httptest.Server
	urls := make([]string, 3)
	for i := range urls {
		pub, ts := storeArm(t, buildGrid(t, 3), server.ShardSpec{Index: i, Total: 3}, filepath.Join(dir, fmt.Sprint("shard", i)))
		engines = append(engines, pub.Engine())
		shards = append(shards, ts)
		urls[i] = ts.URL
	}
	first := daemonPub.Current()
	for _, e := range engines {
		if err := e.RemoveBiLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
		if err := e.AddBiLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
	}
	g, err := gateway.New(context.Background(), urls, gateway.WithInfo(server.Info{Protocol: "mincost"}))
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	t.Cleanup(gw.Close)

	// The prov reads name a real vertex of shard 0 (which owns n1, n4
	// and n7), the execution that derived it, and a node of shard 1.
	const tuple = "mincost(@'n1','n9',4)"
	lit, err := provquery.ParseTupleLiteral(tuple)
	if err != nil {
		t.Fatal(err)
	}
	vid := lit.VID().String()
	sc, err := client.New(shards[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := sc.ProvRead(context.Background(), 0, []client.ProvReadOp{{Op: client.ProvReadVertex, Loc: "n1", ID: vid}})
	if err != nil {
		t.Fatal(err)
	}
	if derivs := vr.Results[0].Derivs; len(derivs) == 0 || derivs[0].RID == "" || derivs[0].RLoc != "n1" {
		t.Fatalf("vertex %s@n1 has derivations %+v, want one executed at n1", tuple, derivs)
	}
	provRead := fmt.Sprintf(`{"reads":[{"op":"vertex","loc":"n1","id":%q},{"op":"exec","loc":"n1","id":%q},{"op":"vertex","loc":"n2","id":%q}]}`,
		vid, vr.Results[0].Derivs[0].RID, vid)

	unminted := fmt.Sprintf("/v1/nodes?version=%d", daemonPub.Current().Version+1)
	tiers := []string{"daemon", "gateway"}
	cases := []struct {
		name         string
		arms         []string
		method, path string
		body         string
	}{
		{"healthz daemon", []string{"daemon"}, "GET", "/v1/healthz", ""},
		{"healthz shard", []string{"shard"}, "GET", "/v1/healthz", ""},
		{"healthz gateway", []string{"gateway"}, "GET", "/v1/healthz", ""},
		{"shards shard", []string{"shard"}, "GET", "/v1/shards", ""},
		{"shards gateway", []string{"gateway"}, "GET", "/v1/shards", ""},
		{"nodes", tiers, "GET", "/v1/nodes", ""},
		{"state", tiers, "GET", "/v1/state/n5", ""},
		{"state rel", tiers, "GET", "/v1/state/n5?rel=mincost", ""},
		{"state t", tiers, "GET", fmt.Sprintf("/v1/state/n4?t=%d", first.Time), ""},
		{"history first", tiers, "GET", "/v1/history/first?tuple=" + url.QueryEscape("link(@'n4','n5',1)"), ""},
		{"query lineage", tiers, "POST", "/v1/query", `{"q":"lineage of ` + tuple + `"}`},
		{"query bases", tiers, "POST", "/v1/query", `{"q":"bases of ` + tuple + `"}`},
		{"query nodes", tiers, "POST", "/v1/query", `{"q":"nodes of ` + tuple + `"}`},
		{"query count", tiers, "POST", "/v1/query", `{"type":"count","tuple":"` + tuple + `","options":{"threshold":1}}`},
		{"batch", tiers, "POST", "/v1/query/batch", `{"queries":[{"q":"lineage of ` + tuple + `"},{"q":"count of mincost(@'n1','n9',99)"}]}`},
		{"prov read", []string{"shard"}, "POST", "/v1/prov/read", provRead},
		{"proof.dot", tiers, "GET", "/v1/proof.dot?tuple=" + url.QueryEscape(tuple), ""},
		{"error envelope", tiers, "POST", "/v1/query", `{"q":"lineage of mincost(@'n1','n9',99)"}`},
		{"unknown endpoint", tiers, "GET", "/v1/nope", ""},
		{"wrong method", tiers, "GET", "/v1/query", ""},
		{"invalid option", tiers, "POST", "/v1/query", `{"type":"lineage","tuple":"` + tuple + `","options":{"maxdepth":-1}}`},
		// The arms tee to stores, so an old version is served from disk:
		// only a version not minted yet is unretained. The gateway
		// relays the shard's envelope with its own message prefix.
		{"unminted daemon", []string{"daemon"}, "GET", unminted, ""},
		{"unminted gateway", []string{"gateway"}, "GET", unminted, ""},
	}
	base := map[string]string{"daemon": daemon.URL, "shard": shards[0].URL, "gateway": gw.URL}
	for _, tc := range cases {
		for _, arm := range tc.arms {
			resp, body := do(t, tc.method, base[arm]+tc.path, tc.body, nil)
			sum := sha256.Sum256(append([]byte(fmt.Sprintf("%d\n", resp.StatusCode)), body...))
			if got := hex.EncodeToString(sum[:]); got != wireBytesPinned[tc.name] {
				t.Errorf("%s (%s): sha256 %s, pinned %s\n%d %s", tc.name, arm, got, wireBytesPinned[tc.name], resp.StatusCode, body)
			}
		}
	}
}
