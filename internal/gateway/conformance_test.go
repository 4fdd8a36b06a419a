package gateway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/server"
)

// do sends one request and returns the response with its whole body.
func do(t testing.TB, method, url, body string, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// errorCode extracts the code of the uniform error envelope ("" when
// the body is not one).
func errorCode(body []byte) string {
	var e client.ErrorEnvelope
	_ = json.Unmarshal(body, &e) // a non-envelope body is reported as code ""
	return e.Error.Code
}

// sharedHeaders are the response headers both tiers must agree on.
// X-Shard-Hops is the gateway's alone. The cache counters are shared:
// each tier keeps one result cache for the life of the process, so the
// same request list moves both tiers' counters alike.
var sharedHeaders = []string{"ETag", "X-Cache", "X-Cache-Hits", "X-Cache-Misses", "Content-Type", "Allow", "X-Snapshot-Version"}

// TestTierConformance sends one request list to a daemon and to a
// 3-shard gateway over the same converged state: the /v1 surface is one
// handler set, so status, error code, body bytes and the shared headers
// must be identical on both tiers — for every good request and for
// every class of bad one, in the one validation order (free 400s, then
// the 410 pin, then ETag/304, then evaluation).
func TestTierConformance(t *testing.T) {
	d := deployGrid(t, 3, 3, 0)
	// One link flap on every engine (identical stimulus keeps the runs
	// aligned) puts versions at several virtual instants, so ?t= has an
	// earlier retained instant to resolve.
	first := d.singlePub.Current()
	for _, e := range d.engines() {
		if err := e.RemoveBiLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		if err := e.AddBiLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
	}
	cur := d.singlePub.Current()
	v := cur.Version
	if v < first.Version+2 || cur.Time <= first.Time {
		t.Fatalf("flap minted versions %d@%d -> %d@%d, want later ones", first.Version, first.Time, v, cur.Time)
	}
	prev, _ := d.singlePub.At(v - 1)
	const tuple = "mincost(@'n1','n9',4)"
	const evicted = 999999

	var bigBatch strings.Builder
	bigBatch.WriteString(`{"queries":[`)
	for i := 0; i <= server.MaxBatchQueries; i++ {
		if i > 0 {
			bigBatch.WriteByte(',')
		}
		fmt.Fprintf(&bigBatch, `{"q":"count of %s"}`, tuple)
	}
	bigBatch.WriteString("]}")
	oversized := `{"q":"` + strings.Repeat("a", server.MaxBodyBytes) + `"}`

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string // error code; "" for a success
		// messageVaries: the tiers word the failure differently (the
		// gateway names the shard that noticed), so only status and code
		// are compared.
		messageVaries bool
	}{
		// The four query types, textual then structured (the structured
		// twins are cache hits on both tiers).
		{"lineage text", "POST", "/v1/query", `{"q":"lineage of ` + tuple + `"}`, 200, "", false},
		{"bases text", "POST", "/v1/query", `{"q":"bases of ` + tuple + `"}`, 200, "", false},
		{"nodes text", "POST", "/v1/query", `{"q":"nodes of ` + tuple + `"}`, 200, "", false},
		{"count text", "POST", "/v1/query", `{"q":"count of ` + tuple + ` with threshold 1"}`, 200, "", false},
		{"lineage structured", "POST", "/v1/query", `{"type":"lineage","tuple":"` + tuple + `"}`, 200, "", false},
		{"bases structured", "POST", "/v1/query", `{"type":"bases","tuple":"` + tuple + `","at":"n1"}`, 200, "", false},
		{"nodes structured", "POST", "/v1/query", `{"type":"nodes","tuple":"` + tuple + `"}`, 200, "", false},
		{"count structured pinned", "POST", "/v1/query", fmt.Sprintf(`{"type":"count","tuple":"%s","options":{"maxdepth":3},"version":%d}`, tuple, v), 200, "", false},
		// An earlier version's walk counts in the same process-wide
		// counters as the current version's.
		{"bases pinned earlier", "POST", "/v1/query", fmt.Sprintf(`{"q":"bases of %s","version":%d}`, tuple, v-1), 200, "", false},
		{"batch", "POST", "/v1/query/batch", `{"queries":[{"q":"lineage of ` + tuple + `"},{"q":"bases of mincost(@'n4','n9',3)"},` +
			`{"q":"count of mincost(@'n1','n9',99)"},{"type":"lineage","tuple":"` + tuple + `","options":{"maxdepth":-3}},{"q":"lineage of ` + tuple + `"}]}`, 200, "", false},
		{"proof.dot", "GET", "/v1/proof.dot?tuple=" + tuple, "", 200, "", false},
		{"nodes", "GET", "/v1/nodes", "", 200, "", false},
		{"nodes pinned", "GET", fmt.Sprintf("/v1/nodes?version=%d", v), "", 200, "", false},
		{"state rel", "GET", "/v1/state/n5?rel=mincost", "", 200, "", false},
		{"state rel pinned", "GET", fmt.Sprintf("/v1/state/n9?rel=link&version=%d", v), "", 200, "", false},
		// Time travel: t resolves to a version at or below the pin.
		{"state at the current instant", "GET", fmt.Sprintf("/v1/state/n5?t=%d", cur.Time), "", 200, "", false},
		{"state at an earlier instant", "GET", fmt.Sprintf("/v1/state/n5?t=%d", prev.Time), "", 200, "", false},
		{"state at the first instant, rel", "GET", fmt.Sprintf("/v1/state/n4?rel=mincost&t=%d", first.Time), "", 200, "", false},
		{"state at an earlier instant, pinned", "GET", fmt.Sprintf("/v1/state/n4?version=%d&t=%d", v-1, first.Time), "", 200, "", false},

		// Free 400s.
		{"bad JSON", "POST", "/v1/query", `{`, 400, client.CodeInvalidRequest, false},
		{"neither request form", "POST", "/v1/query", `{"at":"n1"}`, 400, client.CodeInvalidRequest, false},
		{"unknown query type", "POST", "/v1/query", `{"type":"explain","tuple":"` + tuple + `"}`, 400, client.CodeInvalidQuery, false},
		{"unknown textual type", "POST", "/v1/query", `{"q":"explain of ` + tuple + `"}`, 400, client.CodeInvalidQuery, false},
		{"negative option", "POST", "/v1/query", `{"type":"lineage","tuple":"` + tuple + `","options":{"maxdepth":-1}}`, 400, client.CodeInvalidOption, false},
		{"absurd option", "POST", "/v1/query", `{"type":"lineage","tuple":"` + tuple + `","options":{"maxnodes":99999999}}`, 400, client.CodeInvalidOption, false},
		{"bad timeout", "POST", "/v1/query?timeout=banana", `{"q":"count of ` + tuple + `"}`, 400, client.CodeInvalidOption, false},
		{"negative timeout", "GET", "/v1/proof.dot?timeout=-5s&tuple=" + tuple, "", 400, client.CodeInvalidOption, false},
		{"bad version", "GET", "/v1/nodes?version=banana", "", 400, client.CodeInvalidRequest, false},
		{"bad virtual time", "GET", "/v1/state/n1?t=banana", "", 400, client.CodeInvalidRequest, false},
		{"missing tuple", "GET", "/v1/proof.dot", "", 400, client.CodeInvalidRequest, false},
		{"empty batch", "POST", "/v1/query/batch", `{"queries":[]}`, 400, client.CodeInvalidRequest, false},
		{"1025-query batch", "POST", "/v1/query/batch", bigBatch.String(), 400, client.CodeInvalidRequest, false},
		{"batch element with version", "POST", "/v1/query/batch", `{"queries":[{"q":"count of ` + tuple + `","version":1}]}`, 400, client.CodeInvalidRequest, false},
		{"oversized body", "POST", "/v1/query", oversized, 413, client.CodeInvalidRequest, false},
		{"oversized batch", "POST", "/v1/query/batch", oversized, 413, client.CodeInvalidRequest, false},

		// Malformed and pinned to an evicted version: the 400 wins.
		{"malformed query, evicted version", "POST", "/v1/query", fmt.Sprintf(`{"q":"explain of %s","version":%d}`, tuple, evicted), 400, client.CodeInvalidQuery, false},
		{"empty batch, evicted version", "POST", "/v1/query/batch", fmt.Sprintf(`{"version":%d,"queries":[]}`, evicted), 400, client.CodeInvalidRequest, false},
		{"missing tuple, evicted version", "GET", fmt.Sprintf("/v1/proof.dot?version=%d", evicted), "", 400, client.CodeInvalidRequest, false},
		{"bad virtual time, evicted version", "GET", fmt.Sprintf("/v1/state/n1?t=banana&version=%d", evicted), "", 400, client.CodeInvalidRequest, false},

		// The pin.
		{"evicted query", "POST", "/v1/query", fmt.Sprintf(`{"q":"count of %s","version":%d}`, tuple, evicted), 410, client.CodeSnapshotEvicted, true},
		{"evicted batch", "POST", "/v1/query/batch", fmt.Sprintf(`{"version":%d,"queries":[{"q":"count of %s"}]}`, evicted, tuple), 410, client.CodeSnapshotEvicted, true},
		{"evicted state, unknown node", "GET", fmt.Sprintf("/v1/state/ghost?version=%d", evicted), "", 410, client.CodeSnapshotEvicted, true},
		{"evicted state, good virtual time", "GET", fmt.Sprintf("/v1/state/n5?version=%d&t=%d", evicted, cur.Time), "", 410, client.CodeSnapshotEvicted, true},

		// Evaluation.
		{"unknown node query", "POST", "/v1/query", `{"type":"lineage","tuple":"mincost(@'ghost','n4',2)"}`, 404, client.CodeUnknownNode, false},
		{"unknown node proof.dot", "GET", "/v1/proof.dot?tuple=mincost(@'ghost','n4',2)", "", 404, client.CodeUnknownNode, false},
		{"unknown node state", "GET", "/v1/state/ghost", "", 404, client.CodeUnknownNode, false},
		{"virtual time before anything retained", "GET", fmt.Sprintf("/v1/state/n5?t=%d", first.Time-1), "", 404, client.CodeUnknownNode, true},
		{"no provenance query", "POST", "/v1/query", `{"q":"lineage of mincost(@'n1','n9',99)"}`, 404, client.CodeNoProvenance, false},
		{"no provenance proof.dot", "GET", "/v1/proof.dot?tuple=mincost(@'n1','n9',99)", "", 404, client.CodeNoProvenance, false},
		{"expired deadline", "POST", "/v1/query?timeout=1ns", fmt.Sprintf(`{"type":"lineage","tuple":"%s","options":{"threshold":4242},"version":%d}`, tuple, v), 504, client.CodeQueryTimeout, true},

		// Routing.
		{"wrong method on a GET route", "POST", "/v1/nodes", `{}`, 405, client.CodeMethodNotAllowed, false},
		{"wrong method on a POST route", "GET", "/v1/query/batch", "", 405, client.CodeMethodNotAllowed, false},
		{"unknown path", "GET", "/v1/nope", "", 404, client.CodeUnknownEndpoint, false},
		{"unversioned path", "GET", "/nodes", "", 404, client.CodeUnknownEndpoint, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sResp, sBody := do(t, tc.method, d.single.URL+tc.path, tc.body, nil)
			gResp, gBody := do(t, tc.method, d.gw.URL+tc.path, tc.body, nil)
			if sResp.StatusCode != tc.status || gResp.StatusCode != tc.status {
				t.Fatalf("status: daemon %d, gateway %d, want %d\n%s\n%s",
					sResp.StatusCode, gResp.StatusCode, tc.status, sBody, gBody)
			}
			if tc.code != "" && (errorCode(sBody) != tc.code || errorCode(gBody) != tc.code) {
				t.Fatalf("error code: daemon %q, gateway %q, want %q", errorCode(sBody), errorCode(gBody), tc.code)
			}
			if !tc.messageVaries && !bytes.Equal(sBody, gBody) {
				t.Fatalf("bodies diverge:\ndaemon  %s\ngateway %s", sBody, gBody)
			}
			for _, h := range sharedHeaders {
				if s, g := sResp.Header.Get(h), gResp.Header.Get(h); s != g {
					t.Fatalf("%s: daemon %q, gateway %q", h, s, g)
				}
			}
		})
	}

	// Conditional GETs work on both tiers, with one tag: a validator
	// minted by the daemon revalidates on the gateway.
	t.Run("conditional GET", func(t *testing.T) {
		for _, path := range []string{"/v1/nodes", "/v1/state/n5?rel=mincost", fmt.Sprintf("/v1/state/n5?t=%d", prev.Time), "/v1/proof.dot?tuple=" + tuple} {
			full, _ := do(t, "GET", d.single.URL+path, "", nil)
			etag := full.Header.Get("ETag")
			if etag == "" {
				t.Fatalf("%s: daemon minted no ETag", path)
			}
			for tier, base := range map[string]string{"daemon": d.single.URL, "gateway": d.gw.URL} {
				resp, body := do(t, "GET", base+path, "", http.Header{"If-None-Match": {etag}})
				if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
					t.Fatalf("%s %s: conditional GET = %d, %d body bytes, ETag %q (want 304, empty, %q)",
						tier, path, resp.StatusCode, len(body), resp.Header.Get("ETag"), etag)
				}
			}
		}
	})

	// X-Cache-Misses counts completed walks: a walk that is aborted by
	// its deadline or fails for want of provenance leaves it unchanged,
	// on both tiers.
	t.Run("failed walks are not misses", func(t *testing.T) {
		warm := `{"q":"lineage of ` + tuple + `"}`
		for tier, base := range map[string]string{"daemon": d.single.URL, "gateway": d.gw.URL} {
			before, _ := do(t, "POST", base+"/v1/query", warm, nil)
			aborted, body := do(t, "POST", base+"/v1/query?timeout=1ns", fmt.Sprintf(
				`{"type":"lineage","tuple":"%s","options":{"threshold":777},"version":%d}`, tuple, v), nil)
			if aborted.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("%s: aborted walk = %d %s", tier, aborted.StatusCode, body)
			}
			failed, body := do(t, "POST", base+"/v1/query", `{"q":"count of mincost(@'n1','n9',77)"}`, nil)
			if failed.StatusCode != http.StatusNotFound {
				t.Fatalf("%s: failed walk = %d %s", tier, failed.StatusCode, body)
			}
			after, _ := do(t, "POST", base+"/v1/query", warm, nil)
			b, a := before.Header.Get("X-Cache-Misses"), after.Header.Get("X-Cache-Misses")
			if before.Header.Get("X-Cache") != "HIT" || b == "" || a != b {
				t.Fatalf("%s: X-Cache-Misses %q -> %q across an aborted and a failed walk (warm query X-Cache %q)",
					tier, b, a, before.Header.Get("X-Cache"))
			}
		}
	})
}
