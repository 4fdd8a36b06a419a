package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"repro/client"
)

// catalogStatus holds every status the error catalog (errors.go)
// assigns, plus 200.
var catalogStatus = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusRequestEntityTooLarge: true,
	http.StatusNotFound: true, http.StatusMethodNotAllowed: true, http.StatusGone: true,
	http.StatusNotImplemented: true, StatusClientClosedRequest: true, http.StatusGatewayTimeout: true,
	http.StatusInternalServerError: true, http.StatusMisdirectedRequest: true, http.StatusBadGateway: true,
}

var catalogCodes = map[string]bool{
	client.CodeInvalidRequest: true, client.CodeInvalidQuery: true, client.CodeInvalidOption: true, client.CodeUnknownNode: true,
	client.CodeNoProvenance: true, client.CodeUnknownEndpoint: true, client.CodeMethodNotAllowed: true, client.CodeSnapshotEvicted: true,
	client.CodeNoHistory: true, client.CodeQueryCancelled: true, client.CodeQueryTimeout: true, client.CodeInternal: true,
	client.CodeWrongShard: true, client.CodeShardUnreachable: true,
}

// FuzzHandler drives one daemon's handler, over a 2x2 MINCOST grid
// built once, with a fuzzed POST /v1/query body and a fuzzed
// GET /v1/proof.dot?tuple= literal. A panic fails the target; every
// status must come from the error catalog, every non-2xx body must be
// the error envelope with a catalog code, and every 200 query body
// must decode as the SDK's QueryResult.
func FuzzHandler(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"q":"lineage of mincost(@'n1','n4',2)"}`, "mincost(@'n1','n4',2)"},
		{`{"q":"bases of mincost(@'n1','n4',2)"}`, "mincost(@'n1','n2',1)"},
		{`{"q":"count of mincost(@'n1','n4',2) with threshold 1"}`, "mincost(@'n1','n4',99)"},
		{`{"q":"nodes of mincost(@'n1','n4',2) at 'n2' with max-depth 1, maxnodes 2"}`, "link(@'n1','n2',1)"},
		{`{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxdepth":1}}`, "mincost(@'n1','n4'"},
		{`{"type":"count","tuple":"mincost(@'n1','n4',2)","options":{"threshold":7777}}`, "('x')"},
		{`{"type":"bases","tuple":"mincost(@'n1','n4',2)","version":1}`, "mincost(@'n9','n4',2)"},
		{`{"type":"wat","tuple":"link(@'n1','n2',1)"}`, `r(@'n1',"a\"b")`},
		{`{"q":"explain mincost(@'n1','n4',2)"}`, ""},
		{`{"q":"lineage of mincost(@'n1','n4'"}`, "x(X)"},
		{`{"q":"lineage of mincost(@'n1','n4',2)","version":99}`, "mincost(@'n1','n4',2) junk"},
		{`{"type":"lineage","tuple":"mincost(@'n1','n4',2)","options":{"maxnodes":-1}}`, "mincost(@'n1','n4',2) // c"},
		{`{`, "\xc3"},
		{``, ""},
	} {
		f.Add(seed[0], seed[1])
	}
	pub, err := NewPublisher(buildGrid(f, 2), 0)
	if err != nil {
		f.Fatal(err)
	}
	h := New(pub, Info{Protocol: "mincost"})
	f.Fuzz(func(t *testing.T, body, tuple string) {
		rec := serve(h, "POST", "/v1/query", body)
		checkResponse(t, "POST /v1/query "+body, rec.Code, rec.Body.Bytes())
		if rec.Code == http.StatusOK {
			var res client.QueryResult
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("POST /v1/query %s: 200 body is not a QueryResult: %v\n%s", body, err, rec.Body)
			}
		}
		rec = serve(h, "GET", "/v1/proof.dot?tuple="+url.QueryEscape(tuple), "")
		checkResponse(t, "GET /v1/proof.dot "+tuple, rec.Code, rec.Body.Bytes())
	})
}

func checkResponse(t *testing.T, req string, status int, body []byte) {
	t.Helper()
	if !catalogStatus[status] {
		t.Fatalf("%s: status %d is not in the error catalog", req, status)
	}
	if status < 300 {
		return
	}
	var env client.ErrorEnvelope
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || !catalogCodes[env.Error.Code] {
		t.Fatalf("%s: status %d with a body that is not a catalog envelope (%v): %s", req, status, err, body)
	}
}
