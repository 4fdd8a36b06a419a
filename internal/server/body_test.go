package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/provquery"
)

// serve runs one request through the handler set without a socket.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestReaskedQueryServesStoredBody: a key asked again keeps its body,
// and the third ask — served from the stored bytes — equals the first
// ask's and what RenderQueryResponse + WriteJSON make of an in-process
// walk, for all four query types.
func TestReaskedQueryServesStoredBody(t *testing.T) {
	pub, err := NewPublisher(buildGrid(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(pub, Info{Protocol: "mincost"})
	snap := pub.Current()
	mc, err := provquery.ParseTupleLiteral("mincost(@'n1','n9',4)")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lineage", "bases", "nodes", "count"} {
		req := fmt.Sprintf(`{"type":%q,"tuple":"mincost(@'n1','n9',4)","version":%d}`, name, snap.Version)
		var bodies [3][]byte
		for i, want := range []string{"MISS", "HIT", "HIT"} {
			before := snap.cache.BodyBytes()
			rec := serve(srv, "POST", "/v1/query", req)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
				t.Fatalf("%s ask %d: %d X-Cache %q, want 200 %s", name, i+1, rec.Code, rec.Header().Get("X-Cache"), want)
			}
			bodies[i] = rec.Body.Bytes()
			if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(bodies[i])) {
				t.Fatalf("%s ask %d: Content-Length %q on a %d-byte body", name, i+1, got, len(bodies[i]))
			}
			// Only the first hit admits: the miss must not, the second hit
			// finds the body there.
			wantAdmitted := 0
			if i == 1 {
				wantAdmitted = len(bodies[i])
			}
			if admitted := snap.cache.BodyBytes() - before; admitted != int64(wantAdmitted) {
				t.Fatalf("%s ask %d admitted %d body bytes, want %d", name, i+1, admitted, wantAdmitted)
			}
		}
		typ, err := provquery.ParseQueryType(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := snap.Query(typ, "n1", mc, provquery.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := httptest.NewRecorder()
		WriteJSON(ref, http.StatusOK, RenderQueryResponse(snap.Version, int64(snap.Time), res))
		for i, b := range bodies {
			if !bytes.Equal(b, ref.Body.Bytes()) {
				t.Fatalf("%s ask %d differs from WriteJSON(RenderQueryResponse(...)):\n%s\nvs\n%s", name, i+1, b, ref.Body.Bytes())
			}
		}
	}

	// The hit path is a lookup and a Write. Rendering the lineage again
	// costs over a thousand allocations, so this ceiling fails if it
	// creeps back, without the benchmark.
	req := fmt.Sprintf(`{"type":"lineage","tuple":"mincost(@'n1','n9',4)","version":%d}`, snap.Version)
	allocs := testing.AllocsPerRun(50, func() {
		if rec := serve(srv, "POST", "/v1/query", req); rec.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("X-Cache %q", rec.Header().Get("X-Cache"))
		}
	})
	t.Logf("hit path: %.0f allocs per request", allocs)
	if allocs > 100 {
		t.Fatalf("hit path allocates %.0f times per request, want <= 100", allocs)
	}
}

// TestConcurrentFirstHitsChargeOnce: goroutines that all first-hit one
// key each render it, every body is the same, and the budget is charged
// for one copy. Run with -race.
func TestConcurrentFirstHitsChargeOnce(t *testing.T) {
	pub, err := NewPublisher(buildGrid(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(pub, Info{Protocol: "mincost"})
	req := fmt.Sprintf(`{"q":"lineage of mincost(@'n1','n9',4)","version":%d}`, pub.Current().Version)
	first := serve(srv, "POST", "/v1/query", req).Body.Bytes()

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = serve(srv, "POST", "/v1/query", req).Body.Bytes()
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, first) {
			t.Fatalf("concurrent hit %d diverged from the miss body", i)
		}
	}
	if got := pub.cache.BodyBytes(); got != int64(len(first)) {
		t.Fatalf("budget charged %d bytes for one %d-byte body", got, len(first))
	}
}

// TestBodyBudget: re-asked lineages past the budget are still served
// correct and HIT, what is retained never exceeds the budget whatever
// the ring holds, and a snapshot leaving the ring gives its charge back.
func TestBodyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the 64 MiB body budget")
	}
	e := buildGrid(t, 4)
	pub, err := NewPublisherWithOptions(e, PublisherOptions{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(pub, Info{Protocol: "mincost"})
	v := pub.Current().Version
	ask := func(i int) *httptest.ResponseRecorder {
		// A limit that never bites: a distinct key, the same proof.
		return serve(srv, "POST", "/v1/query", fmt.Sprintf(
			`{"type":"lineage","tuple":"mincost(@'n1','n16',6)","version":%d,"options":{"maxnodes":%d}}`, v, 500000+i))
	}
	ref := ask(0).Body.Bytes()
	keys := maxBodyBytes/len(ref) + 4 // four more than fit
	for i := 0; i < keys; i++ {
		ask(i) // the miss (a hit for key 0)
		ask(i) // the first hit: admitted while the budget has room
		if used := pub.cache.BodyBytes(); used > maxBodyBytes {
			t.Fatalf("after key %d: %d body bytes retained, budget %d", i, used, maxBodyBytes)
		}
	}
	if used, want := pub.cache.BodyBytes(), int64(maxBodyBytes/len(ref)*len(ref)); used != want {
		t.Fatalf("retained %d body bytes, want %d (every body that fits)", used, want)
	}
	for _, i := range []int{0, keys - 1} { // a stored body, and one the budget declined
		rec := ask(i)
		if rec.Header().Get("X-Cache") != "HIT" || !bytes.Equal(rec.Body.Bytes(), ref) {
			t.Fatalf("key %d past the budget: X-Cache %q, body equal %v", i, rec.Header().Get("X-Cache"), bytes.Equal(rec.Body.Bytes(), ref))
		}
	}

	// Two more versions push v out of the ring.
	for pub.Current().Version < v+2 {
		if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
		if err := e.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
	}
	if _, ok := pub.At(v); ok {
		t.Fatalf("version %d still retained", v)
	}
	if used := pub.cache.BodyBytes(); used != 0 {
		t.Fatalf("%d body bytes still charged after their snapshot left the ring", used)
	}
}

// TestBodyChargeMatchesHeldUnderEviction: readers hit and admit bodies
// on pinned versions while the simulation thread mints them out of a
// two-version ring, so admissions race the drops. Once the readers
// stop, the bytes the cache charges are exactly the bytes of the
// bodies it holds, version by version. Run with -race.
func TestBodyChargeMatchesHeldUnderEviction(t *testing.T) {
	e := buildGrid(t, 3)
	pub, err := NewPublisherWithOptions(e, PublisherOptions{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(pub, Info{Protocol: "mincost"})
	var hits atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				// Each request pins the version current when it arrives.
				rec := serve(srv, "POST", "/v1/query", fmt.Sprintf(
					`{"type":"lineage","tuple":"mincost(@'n1','n9',4)","options":{"maxnodes":%d}}`, 1000+(r+i)%4))
				if rec.Header().Get("X-Cache") == "HIT" {
					hits.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ { // each flap mints versions, dropping older ones
		if err := e.RemoveBiLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
		if err := e.AddBiLink("n4", "n5", 1); err != nil {
			t.Fatal(err)
		}
		e.RunQuiescent()
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no reader hit: nothing was admitted")
	}

	c := pub.cache
	var held int64
	entries := 0
	for v, g := range c.versions {
		var inGroup int64
		for _, e := range g.m {
			inGroup += int64(len(e.Body))
		}
		if inGroup != g.bodies {
			t.Fatalf("version %d charges %d body bytes, holds %d", v, g.bodies, inGroup)
		}
		held += inGroup
		entries += len(g.m)
	}
	if held != c.BodyBytes() || entries != c.entries {
		t.Fatalf("cache charges %d body bytes over %d entries, holds %d over %d", c.BodyBytes(), c.entries, held, entries)
	}
}

// TestBatchElementSameFromEverySource: one query inside a batch renders
// to the same element whether it was marshalled fresh, repeated from the
// batch's overlay, or taken from the body a re-asked key left behind.
func TestBatchElementSameFromEverySource(t *testing.T) {
	pub, err := NewPublisher(buildGrid(t, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(pub, Info{Protocol: "mincost"})
	v := pub.Current().Version
	const q = `{"q":"lineage of mincost(@'n1','n9',4)"}`
	batch := fmt.Sprintf(`{"version":%d,"queries":[%s,%s]}`, v, q, q)

	fresh := serve(srv, "POST", "/v1/query/batch", batch) // [fresh render, overlay]
	single := fmt.Sprintf(`{"q":"lineage of mincost(@'n1','n9',4)","version":%d}`, v)
	serve(srv, "POST", "/v1/query", single) // first hit: leaves the body
	if pub.Current().cache.BodyBytes() == 0 {
		t.Fatal("the re-asked key kept no body")
	}
	stored := serve(srv, "POST", "/v1/query/batch", batch) // [stored body, overlay]
	if !bytes.Equal(fresh.Body.Bytes(), stored.Body.Bytes()) {
		t.Fatalf("batch over a stored body differs from the freshly rendered one:\n%s\nvs\n%s", fresh.Body.Bytes(), stored.Body.Bytes())
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(stored.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || !bytes.Equal(doc.Results[0], doc.Results[1]) {
		t.Fatal("overlay element differs from the stored-body element")
	}
}

// TestWriteJSONEncodeFailure: a value that does not encode is the
// internal_error envelope under a 500, never a 200 with a cut body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]interface{}{"f": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != client.CodeInternal {
		t.Fatalf("body %q is not the %s envelope (%v)", rec.Body.Bytes(), client.CodeInternal, err)
	}
}

// countingWriter is a ResponseWriter that keeps its headers as they
// were at WriteHeader and counts the body bytes written.
type countingWriter struct {
	h, sent http.Header
	n       int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(int)             { w.sent = w.h.Clone() }
func (w *countingWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestWriteJSONLargeBodyAllocations: a body of several MiB rendered
// again and again allocates per call a small fraction of its size. No
// buffer grows to the body's size for one response and is dropped after
// it: the body streams through the pooled chunk under its Content-Length.
func TestWriteJSONLargeBodyAllocations(t *testing.T) {
	leaf := client.ProofNode{VID: "0123abcd", Loc: "n7", Base: true,
		Tuple: &client.Tuple{Rel: "link", Vals: []string{"n7", "n8", "3"}, Text: "link(@n7, n8, 3)"}}
	root := client.ProofNode{VID: "89abcdef", Loc: "n1", Derivs: []client.Deriv{{Rule: "r1", Loc: "n1", RID: "4567cdef"}}}
	root.Derivs[0].Children = slices.Repeat([]client.ProofNode{leaf}, 4000)
	doc := client.QueryResult{Version: 7, Type: "lineage", Proof: &root,
		Text: strings.Repeat("mincost(@'n1', 'n16', 6)\n  <- rule r2 @n1\n", 32<<10)}
	w := &countingWriter{h: http.Header{}}
	WriteJSON(w, http.StatusOK, doc) // fill the pools
	size := w.n
	if size < 2<<20 || w.sent.Get("Content-Length") != strconv.Itoa(size) {
		t.Fatalf("body %d bytes under Content-Length %q, want one of 2 MiB or more under its length",
			size, w.sent.Get("Content-Length"))
	}
	per := make([]uint64, 15)
	var ms runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		w.n = 0
		WriteJSON(w, http.StatusOK, doc)
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
		if w.n != size {
			t.Fatalf("call %d wrote %d bytes, want %d", i, w.n, size)
		}
	}
	// The fewest: a call that finds a pool emptied — by a collection, on
	// another P than the last call, or by the race detector, which drops
	// a quarter of what pools are given — allocates its buffers afresh.
	// Rendered through a per-body buffer, every call allocated over four
	// times the body.
	slices.Sort(per)
	if least := per[0]; least > uint64(size/16) {
		t.Fatalf("a %d-byte body allocates at least %d bytes per call (all %v), want at most %d",
			size, least, per, size/16)
	}
}

// TestETagWeakComparison: If-None-Match compares weakly, so a validator
// an intermediary weakened still earns the 304; "*" stays declined.
func TestETagWeakComparison(t *testing.T) {
	const tag = `"12-00000000deadbeef"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{tag, true},
		{"W/" + tag, true},
		{`"0-stale", W/` + tag, true},
		{` W/` + tag + ` `, true},
		{`W/"0-stale"`, false},
		{"w/" + tag, false}, // the weak prefix is case-sensitive
		{"*", false},
	} {
		if got := etagMatches(tc.header, tag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}
