package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/gateway"
	"repro/internal/provquery"
	"repro/internal/server"
)

// FuzzShardReply runs a one-shard gateway against a fake shard that
// answers GET /v1/shards and /v1/healthz with a real daemon's bytes and
// every POST /v1/prov/read with the fuzzer's bytes, and asks one
// lineage query. The handler is called directly, so a panic fails the
// target. Oracles:
//   - the answer is a 200 query result, a 502 shard_unreachable, or a
//     404 no_provenance (a reply that says the tuple has no derivations
//     is indistinguishable from a shard whose state says so);
//   - a reply that decodes to the real one answers with the daemon's
//     bytes.
//
// The committed corpus holds the real reply with its reach, the same
// reply without reach (an older shard's), and the {"execOk":true}
// replies a shard once crashed the gateway with.
func FuzzShardReply(f *testing.F) {
	info := server.Info{Protocol: "mincost", MaxNodes: 64} // a hostile reply can shape a huge proof
	pub, err := server.NewPublisher(buildGrid(f, 2), 0)
	if err != nil {
		f.Fatal(err)
	}
	daemon := httptest.NewServer(server.New(pub, info))
	f.Cleanup(daemon.Close)

	const tuple = "mincost(@'n1','n4',2)"
	query := `{"q":"lineage of ` + tuple + `"}`
	resp, want := do(f, "POST", daemon.URL+"/v1/query", query, nil)
	if resp.StatusCode != http.StatusOK {
		f.Fatalf("daemon: %d %s", resp.StatusCode, want)
	}
	_, shards := do(f, "GET", daemon.URL+"/v1/shards", "", nil)
	_, health := do(f, "GET", daemon.URL+"/v1/healthz", "", nil)
	lit, err := provquery.ParseTupleLiteral(tuple)
	if err != nil {
		f.Fatal(err)
	}
	_, realReply := do(f, "POST", daemon.URL+"/v1/prov/read", fmt.Sprintf(
		`{"version":%d,"reads":[{"op":"vertex","loc":"n1","id":%q}]}`, pub.Current().Version, lit.VID()), nil)
	var realReads client.ProvReads
	if err := json.Unmarshal(realReply, &realReads); err != nil {
		f.Fatal(err)
	}
	f.Add(realReply)

	var reply atomic.Pointer[[]byte]
	mux := http.NewServeMux()
	for path, body := range map[string][]byte{"GET /v1/shards": shards, "GET /v1/healthz": health} {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) { w.Write(body) })
	}
	mux.HandleFunc("POST /v1/prov/read", func(w http.ResponseWriter, _ *http.Request) { w.Write(*reply.Load()) })
	shard := httptest.NewServer(mux)
	f.Cleanup(shard.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		reply.Store(&body)
		g, err := gateway.New(context.Background(), []string{shard.URL}, gateway.WithInfo(info))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(query)))
		got := rec.Body.Bytes()
		switch code := errorCode(got); {
		case rec.Code == http.StatusOK:
			var res client.QueryResult
			if err := json.Unmarshal(got, &res); err != nil {
				t.Fatalf("200 with a body that is no query result: %v\n%s", err, got)
			}
		case rec.Code == http.StatusBadGateway && code == client.CodeShardUnreachable,
			rec.Code == http.StatusNotFound && code == client.CodeNoProvenance:
		default:
			t.Fatalf("reply %q: %d %s", body, rec.Code, got)
		}
		var reads client.ProvReads
		if json.Unmarshal(body, &reads) == nil && reflect.DeepEqual(reads, realReads) &&
			(rec.Code != http.StatusOK || !bytes.Equal(got, want)) {
			t.Fatalf("the real reply answered %d\n%s\nnot the daemon's\n%s", rec.Code, got, want)
		}
	})
}
