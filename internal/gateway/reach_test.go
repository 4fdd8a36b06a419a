package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/gateway"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/server"
)

// shardEdgeTuple is TestWireBytesPinned's tuple: its proof on the 3x3
// grid starts on shard 0 and crosses all three shards.
const shardEdgeTuple = "mincost(@'n1','n9',4)"

// shardEdgeHops are TestWireBytesPinned's lineage, count and bases
// queries, asked in this order of a fresh gateway over the 3-shard 3x3
// grid, with the X-Shard-Hops each costs. Every query pays three
// healthz probes and one start read; the first also pays the version's
// time probe. The rest are reads where the proof crosses shards.
// withoutReach is what each cost before prov reads carried their reach
// (one read per exec step too), and still costs against shards that
// send none.
var shardEdgeHops = []struct {
	q                  string
	hops, withoutReach int
}{
	{`{"q":"lineage of ` + shardEdgeTuple + `"}`, 14, 26},
	{`{"type":"count","tuple":"` + shardEdgeTuple + `","options":{"threshold":1}}`, 8, 15},
	{`{"q":"bases of ` + shardEdgeTuple + `"}`, 13, 25},
}

func hopsOf(t *testing.T, resp *http.Response) int {
	t.Helper()
	n, err := strconv.Atoi(resp.Header.Get("X-Shard-Hops"))
	if err != nil {
		t.Fatalf("X-Shard-Hops %q: %v", resp.Header.Get("X-Shard-Hops"), err)
	}
	return n
}

// TestGatewayHopsAtShardEdges pins what a query costs downstream: a
// round trip is spent only where the proof leaves a shard.
func TestGatewayHopsAtShardEdges(t *testing.T) {
	// (a) One shard owns every node, so every uncached query is its
	// version resolution (one healthz probe, plus the time probe on the
	// version's first use) and one prov read; a cache hit is the probe.
	t.Run("one shard", func(t *testing.T) {
		d := deployGrid(t, 3, 1, 0)
		var qs []string
		for _, tuple := range []string{shardEdgeTuple, "mincost(@'n5','n3',2)", "link(@'n1','n2',1)"} {
			qs = append(qs, parityQueries(tuple)...)
		}
		for i, q := range qs {
			resp, body := post(t, d.gw.URL+"/v1/query", q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", q, resp.StatusCode, body)
			}
			want := 1
			if resp.Header.Get("X-Cache") == "MISS" {
				want++
			}
			if i == 0 {
				want++
			}
			if got := hopsOf(t, resp); got != want {
				t.Fatalf("%s (X-Cache %s): %d hops, want %d", q, resp.Header.Get("X-Cache"), got, want)
			}
		}
	})
	// (b) Three shards: the pinned counts.
	t.Run("three shards", func(t *testing.T) {
		d := deployGrid(t, 3, 3, 0)
		for _, tc := range shardEdgeHops {
			resp, body := post(t, d.gw.URL+"/v1/query", tc.q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.q, resp.StatusCode, body)
			}
			if got := hopsOf(t, resp); got != tc.hops {
				t.Errorf("%s: %d hops, pinned %d", tc.q, got, tc.hops)
			}
		}
	})
}

// stripReach fronts a real shard with a proxy that removes "reach" from
// every /v1/prov/read reply, as a shard predating it answers.
func stripReach(t *testing.T, shardURL string) string {
	t.Helper()
	u, err := url.Parse(shardURL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(u)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/v1/prov/read" || resp.StatusCode != http.StatusOK {
			return nil
		}
		defer resp.Body.Close()
		var reads client.ProvReads
		if err := json.NewDecoder(resp.Body).Decode(&reads); err != nil {
			return err
		}
		for i := range reads.Results {
			reads.Results[i].Reach = nil
		}
		body, err := json.Marshal(reads)
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return nil
	}
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestGatewayWithoutReach: against shards that send no reach, the
// gateway falls back to reading each step on demand. Every body stays
// the daemon's, and the hops return to their count without reach.
func TestGatewayWithoutReach(t *testing.T) {
	d := deployGrid(t, 3, 3, 0)
	urls := make([]string, len(d.shards))
	for i, ts := range d.shards {
		urls[i] = stripReach(t, ts.URL)
	}
	g, err := gateway.New(context.Background(), urls, gateway.WithInfo(server.Info{Protocol: "mincost"}))
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	t.Cleanup(gw.Close)

	for _, tc := range shardEdgeHops {
		resp, body := post(t, gw.URL+"/v1/query", tc.q)
		_, want := post(t, d.single.URL+"/v1/query", tc.q)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s without reach: %d\n%s\nwant the daemon's\n%s", tc.q, resp.StatusCode, body, want)
		}
		if got := hopsOf(t, resp); got != tc.withoutReach {
			t.Errorf("%s without reach: %d hops, want %d", tc.q, got, tc.withoutReach)
		}
	}
	for _, q := range parityQueries("mincost(@'n4','n9',3)") {
		_, body := post(t, gw.URL+"/v1/query", q)
		if _, want := post(t, d.single.URL+"/v1/query", q); !bytes.Equal(body, want) {
			t.Fatalf("%s without reach:\n%s\nwant the daemon's\n%s", q, body, want)
		}
	}
}

// TestGatewayRejectsBadReach: a reach entry for a node the replying
// shard does not own, or one whose rid, vid or tuple does not parse,
// fails the query with 502 shard_unreachable. Shard 0 owns "a" and
// shard 1 "b"; the queried tuple at "a" was derived by an execution at
// "b", which only shard 1 may describe.
func TestGatewayRejectsBadReach(t *testing.T) {
	const tuple = "link(@'a','b',1)"
	lit, err := provquery.ParseTupleLiteral(tuple)
	if err != nil {
		t.Fatal(err)
	}
	base, err := provquery.ParseTupleLiteral("link(@'b','a',1)")
	if err != nil {
		t.Fatal(err)
	}
	rid, bvid := strings.Repeat("ab", 20), base.VID().String()
	// planted is a well-formed execution at "b" whose one input is a
	// base tuple: were it accepted from shard 0, the walk would never
	// ask shard 1 and the query would answer with it.
	planted := func() client.ProvReach {
		return client.ProvReach{Loc: "b", RID: rid,
			Exec: client.ProvExec{Rule: "planted", VIDs: []string{bvid}},
			Inputs: []client.ProvInput{{VID: bvid, ProvVertex: client.ProvVertex{
				TupleOK: true, Tuple: rel.MarshalTuple(base), DerivsOK: true, Derivs: []client.ProvDeriv{{}}}}}}
	}
	local := func(mut func(*client.ProvReach)) client.ProvReach {
		e := planted()
		e.Loc = "a"
		mut(&e)
		return e
	}
	cases := []struct {
		name  string
		reach client.ProvReach
	}{
		{"foreign node", planted()},
		{"unknown node", local(func(e *client.ProvReach) { e.Loc = "z" })},
		{"bad rid", local(func(e *client.ProvReach) { e.RID = "zz" })},
		{"bad vid", local(func(e *client.ProvReach) { e.Exec.VIDs[0] = "zz" })},
		{"bad input vid", local(func(e *client.ProvReach) { e.Inputs[0].VID = "zz" })},
		{"bad tuple", local(func(e *client.ProvReach) { e.Inputs[0].Tuple = []byte{0xff} })},
		{"bad input rid", local(func(e *client.ProvReach) { e.Inputs[0].Derivs[0].RID = "zz" })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var urls []string
			var muxes []*http.ServeMux
			for i, owned := range []string{"a", "b"} {
				url, mux := fakeShard(t, client.Shards{Version: 1, TimeUs: 1000,
					Shard: client.ShardInfo{Index: i, Total: 2}, Nodes: []string{owned}, AllNodes: []string{"a", "b"}})
				mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
					json.NewEncoder(w).Encode(client.Health{OK: true, Protocol: "mincost", Version: 1, TimeUs: 1000, Nodes: 1, Oldest: 1})
				})
				urls, muxes = append(urls, url), append(muxes, mux)
			}
			// Only shard 0 answers reads: the query must fail on its
			// reply, before the walk would turn to shard 1.
			muxes[0].HandleFunc("POST /v1/prov/read", func(w http.ResponseWriter, _ *http.Request) {
				json.NewEncoder(w).Encode(client.ProvReads{Version: 1, Results: []client.ProvReadResult{{
					ProvVertex: client.ProvVertex{TupleOK: true, Tuple: rel.MarshalTuple(lit),
						DerivsOK: true, Derivs: []client.ProvDeriv{{RID: rid, RLoc: "b"}}},
					Reach: []client.ProvReach{tc.reach}}}})
			})
			g, err := gateway.New(context.Background(), urls)
			if err != nil {
				t.Fatal(err)
			}
			gw := httptest.NewServer(g)
			t.Cleanup(gw.Close)
			resp, body := post(t, gw.URL+"/v1/query", `{"q":"lineage of `+tuple+`"}`)
			if resp.StatusCode != http.StatusBadGateway || errorCode(body) != client.CodeShardUnreachable {
				t.Fatalf("reach %+v: %d %s, want 502 %s", tc.reach, resp.StatusCode, body, client.CodeShardUnreachable)
			}
		})
	}
}
