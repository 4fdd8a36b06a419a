package client_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/client"
)

// TestRequestBytesPinned pins the exact request bodies the SDK posts:
// the request schema is the servers' contract as much as the response
// documents are, so a refactor of the SDK's wire types must leave every
// byte in place. The server here only records what it is sent.
func TestRequestBytesPinned(t *testing.T) {
	var (
		mu  sync.Mutex
		got []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.RequestURI()+" "+string(body))
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/query":
			fmt.Fprint(w, `{"version":7,"virtualTimeUs":0,"type":"lineage","stats":{"messages":0,"bytes":0}}`)
		case "/v1/query/batch":
			fmt.Fprint(w, `{"version":5,"virtualTimeUs":0,"results":[]}`)
		case "/v1/prov/read":
			fmt.Fprint(w, `{"version":3,"results":[{}]}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const lit = "mincost(@'n1','n3',2)"

	if _, err := c.Query(ctx, "lineage of "+lit); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lineage(ctx, lit, client.AtNode("n2"), client.At(7),
		client.WithOptions(client.Options{MaxDepth: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, lit, client.WithOptions(client.Options{})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryBatch(ctx, []client.BatchQuery{
		{Q: "nodes of " + lit},
		{Type: "bases", Tuple: lit, At: "n1", Options: &client.Options{Threshold: 2, Sequential: true}},
		{Type: "lineage", Tuple: lit},
	}, client.At(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProvRead(ctx, 3, []client.ProvReadOp{
		{Op: client.ProvReadVertex, Loc: "n1", ID: "00ff"},
	}); err != nil {
		t.Fatal(err)
	}

	want := []string{
		`POST /v1/query {"q":"lineage of mincost(@'n1','n3',2)"}`,
		`POST /v1/query {"type":"lineage","tuple":"mincost(@'n1','n3',2)","at":"n2","version":7,"options":{"maxdepth":1}}`,
		`POST /v1/query {"type":"count","tuple":"mincost(@'n1','n3',2)","options":{}}`,
		`POST /v1/query/batch {"version":5,"queries":[{"q":"nodes of mincost(@'n1','n3',2)"},` +
			`{"type":"bases","tuple":"mincost(@'n1','n3',2)","at":"n1","options":{"threshold":2,"sequential":true}},` +
			`{"type":"lineage","tuple":"mincost(@'n1','n3',2)"}]}`,
		`POST /v1/prov/read {"version":3,"reads":[{"op":"vertex","loc":"n1","id":"00ff"}]}`,
	}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("request bytes changed:\ngot\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
