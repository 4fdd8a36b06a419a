package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/provstore"
)

func queryEscape(s string) string { return url.QueryEscape(s) }

// openTestStore opens a snapshot store matching the engine's node set
// (unsharded), with small segments so tests cross seal boundaries.
func openTestStore(t testing.TB, dir string, e *engine.Engine, tweak func(*provstore.Options)) *provstore.Store {
	t.Helper()
	opts := provstore.Options{AllNodes: e.Nodes(), Owned: e.Nodes(), SealVersions: 4}
	if tweak != nil {
		tweak(&opts)
	}
	st, err := provstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newStoreServer boots a publisher teeing to st plus its HTTP server.
func newStoreServer(t testing.TB, e *engine.Engine, retain int, st *provstore.Store) (*Publisher, *httptest.Server) {
	t.Helper()
	pub, err := NewPublisherWithOptions(e, PublisherOptions{Retain: retain, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	pub.Detach()
	ts := httptest.NewServer(New(pub, Info{Protocol: "mincost"}))
	t.Cleanup(ts.Close)
	return pub, ts
}

// churnVersions perturbs the engine and publishes until n new versions
// exist, returning the newest.
func churnVersions(t testing.TB, pub *Publisher, n int) uint64 {
	t.Helper()
	start := pub.Current().Version
	k := 0
	for pub.Current().Version < start+uint64(n) {
		if err := pub.eng.InsertFact(churnTuple("n1", k)); err != nil {
			t.Fatal(err)
		}
		k++
		pub.Publish()
		if k > 100*n {
			t.Fatalf("churn stalled at version %d", pub.Current().Version)
		}
	}
	return pub.Current().Version
}

// markerLit is a base fact at n2 — a node the churn loop never
// touches, so it survives every epoch once inserted (churnTuple("n2",
// 3) renders to this literal).
const markerLit = "link(@'n2','n2',93)"

// pinnedBodies fetches the version-determined read surface pinned at
// v: per-node state, the nodes summary, and a lineage query of the
// marker fact.
func pinnedBodies(t testing.TB, ts *httptest.Server, pub *Publisher, v uint64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, addr := range pub.Current().Nodes {
		url := fmt.Sprintf("%s/v1/state/%s?version=%d", ts.URL, addr, v)
		code, body := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, code, body)
		}
		out["state:"+addr] = body
	}
	code, body := get(t, fmt.Sprintf("%s/v1/nodes?version=%d", ts.URL, v))
	if code != http.StatusOK {
		t.Fatalf("nodes@%d: %d %s", v, code, body)
	}
	out["nodes"] = body

	req := fmt.Sprintf(`{"type":"lineage","tuple":%q,"version":%d}`, markerLit, v)
	code, body = post(t, ts.URL+"/v1/query", req)
	if code != http.StatusOK {
		t.Fatalf("query@%d: %d %s", v, code, body)
	}
	out["query"] = body
	return out
}

func sameBodies(t *testing.T, want, got map[string][]byte, label string) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: %s missing", label, k)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: %s drifted:\nring: %s\ndisk: %s", label, k, w, g)
		}
	}
}

// TestStoreFallbackServesEvictedVersions is the tentpole contract:
// with a store attached, a version that ages out of the in-memory ring
// is served from disk with byte-identical bodies — never
// snapshot_evicted.
func TestStoreFallbackServesEvictedVersions(t *testing.T) {
	e := buildGrid(t, 2)
	st := openTestStore(t, t.TempDir(), e, nil)
	defer st.Close()
	pub, ts := newStoreServer(t, e, 4, st)

	if err := e.InsertFact(churnTuple("n2", 3)); err != nil {
		t.Fatal(err)
	}
	pub.Publish()
	churnVersions(t, pub, 1)
	pinned := pub.Current().Version // still in the ring when captured
	want := pinnedBodies(t, ts, pub, pinned)

	churnVersions(t, pub, 10) // push pinned out of the retain=4 ring
	if first := pub.cur.Load().snaps[0].Version; first <= pinned {
		t.Fatalf("test is vacuous: version %d still in the ring (first %d)", pinned, first)
	}
	oldest, _ := pub.Versions()
	if oldest != 1 {
		t.Fatalf("store-backed oldest = %d, want 1", oldest)
	}
	sameBodies(t, want, pinnedBodies(t, ts, pub, pinned), "after eviction")

	// Unpinned current reads and a too-new pin still behave.
	if _, ok := pub.At(pub.Current().Version + 1); ok {
		t.Fatal("future version resolved")
	}
	code, body := get(t, fmt.Sprintf("%s/v1/state/n1?version=%d", ts.URL, pub.Current().Version+10))
	if code != http.StatusGone {
		t.Fatalf("future pin: %d %s", code, body)
	}
}

// TestStoreRestartResumesAndServes: a restarted daemon (fresh engine,
// reopened store) resumes minting at LastVersion()+1 and serves early
// pinned versions from disk byte-identically. Time travel obeys the
// restart rule: virtual time restarts with the process, so a pin minted
// by this run resolves ?t= among this run's versions only, and a pin of
// the previous run among that run's.
func TestStoreRestartResumesAndServes(t *testing.T) {
	dir := t.TempDir()
	e1 := buildGrid(t, 2)
	st1 := openTestStore(t, dir, e1, nil)
	pub1, ts1 := newStoreServer(t, e1, 4, st1)
	if err := e1.InsertFact(churnTuple("n2", 3)); err != nil {
		t.Fatal(err)
	}
	pinned := pub1.Publish().Version // 2: long evicted from the retain=4 ring below
	flapVersions(t, pub1, 8)
	last := pub1.Current().Version
	want := pinnedBodies(t, ts1, pub1, pinned)
	oldTimes := map[uint64]int64{}
	for v := uint64(1); v <= last; v++ {
		oldTimes[v] = timeOfVersion(t, pub1, v)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted process attaches its publisher two flaps into its own
	// clock, so the new run's first version is later than the old run's
	// early ones and earlier than its late ones.
	e2 := buildGrid(t, 2)
	for i := 0; i < 2; i++ {
		if err := e2.RemoveBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		if err := e2.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
	}
	st2 := openTestStore(t, dir, e2, nil)
	defer st2.Close()
	pub2, ts2 := newStoreServer(t, e2, 4, st2)
	if got := pub2.Current().Version; got != last+1 {
		t.Fatalf("restart minted version %d, want %d", got, last+1)
	}
	if oldest, _ := pub2.Versions(); oldest != 1 {
		t.Fatalf("restart oldest = %d, want 1", oldest)
	}
	sameBodies(t, want, pinnedBodies(t, ts2, pub2, pinned), "after restart")

	// And the chain keeps extending densely.
	flapVersions(t, pub2, 6)
	pin := pub2.Current().Version
	if pin != last+7 {
		t.Fatalf("post-restart churn reached %d, want %d", pin, last+7)
	}
	start := timeOfVersion(t, pub2, last+1)
	if start <= oldTimes[1] || start >= oldTimes[last] {
		t.Fatalf("test is vacuous: new run starts at t=%d, old run spans [%d, %d]", start, oldTimes[1], oldTimes[last])
	}

	// travel asserts that ?version=pin&t=at serves n1 as version v holds it.
	travel := func(pin uint64, at int64, v uint64) {
		t.Helper()
		_, want := stateAt(t, ts2, v, nil)
		code, got := stateAt(t, ts2, pin, &at)
		if code != http.StatusOK || got.Version != pin || got.TimeUs != want.TimeUs ||
			fmt.Sprint(got.Tables) != fmt.Sprint(want.Tables) {
			t.Fatalf("?version=%d&t=%d: %d, version %d, state of t=%d; want version %d's state of t=%d",
				pin, at, code, got.Version, got.TimeUs, v, want.TimeUs)
		}
	}

	// A pin of this run: every version of (last, pin] is found at its own
	// instant, and an instant before the run began is 404 although the
	// store holds old-run versions with smaller timestamps.
	for v := last + 1; v <= pin; v++ {
		travel(pin, timeOfVersion(t, pub2, v), v)
	}
	before := start - 1
	if code, _ := stateAt(t, ts2, pin, &before); code != http.StatusNotFound {
		t.Fatalf("?version=%d&t=%d crossed the restart boundary: %d, want 404", pin, before, code)
	}

	// A pin of the previous run resolves on that run's clock: an instant
	// later than everything this run has seen still finds old versions.
	for _, v := range []uint64{1, pinned, last} {
		travel(last, oldTimes[v], v)
	}
}

// flapVersions flaps the n1-n2 link and publishes until n new versions
// exist. Unlike churnVersions every version lands at a later virtual
// instant and changes n1's state, which is what ?t= reads need.
func flapVersions(t testing.TB, pub *Publisher, n int) {
	t.Helper()
	e := pub.eng
	target := pub.Current().Version + uint64(n)
	for pub.Current().Version < target {
		flap := e.AddBiLink
		for _, nb := range e.Net.Neighbors("n1") {
			if nb == "n2" {
				flap = e.RemoveBiLink
			}
		}
		before := pub.Current()
		if err := flap("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		if after := pub.Publish(); after.Version != before.Version+1 || after.Time <= before.Time {
			t.Fatalf("flap did not mint one later version: %d@%d -> %d@%d",
				before.Version, before.Time, after.Version, after.Time)
		}
	}
}

// timeOfVersion is the virtual time version v was published at.
func timeOfVersion(t testing.TB, pub *Publisher, v uint64) int64 {
	t.Helper()
	snap, ok := pub.At(v)
	if !ok {
		t.Fatalf("version %d does not resolve", v)
	}
	return int64(snap.Time)
}

// TestTimeTravelRingDiskParity: ?version=V&t=T is a pure function of
// its parameters — the same status, body and ETag while V sits in the
// ring and after it has been evicted to the store, and the validator
// minted in the ring revalidates (304) against the disk-served version.
func TestTimeTravelRingDiskParity(t *testing.T) {
	e := buildGrid(t, 2)
	st := openTestStore(t, t.TempDir(), e, nil)
	defer st.Close()
	pub, ts := newStoreServer(t, e, 4, st)

	flapVersions(t, pub, 9)
	v := pub.Current().Version
	tv := func(back uint64) int64 { return timeOfVersion(t, pub, v-back) }
	times := map[string]int64{
		"the pin's own instant":         tv(0),
		"an earlier ring version":       tv(2),
		"between two changes of n1":     (tv(3) + tv(2)) / 2,
		"a version already on disk":     tv(6),
		"the oldest version":            timeOfVersion(t, pub, 1),
		"before anything was published": timeOfVersion(t, pub, 1) - 1,
	}
	if between := times["between two changes of n1"]; between <= tv(3) || between >= tv(2) {
		t.Fatalf("test is vacuous: no instant strictly between t=%d and t=%d", tv(3), tv(2))
	}
	var paths []string
	for _, at := range times {
		paths = append(paths,
			fmt.Sprintf("/v1/state/n1?version=%d&t=%d", v, at),
			fmt.Sprintf("/v1/state/n1?version=%d&t=%d&rel=mincost", v, at))
	}

	type reply struct {
		status int
		etag   string
		body   []byte
	}
	fetch := func() map[string]reply {
		out := map[string]reply{}
		for _, path := range paths {
			resp, body := getFull(t, ts.URL+path)
			out[path] = reply{resp.StatusCode, resp.Header.Get("ETag"), body}
		}
		return out
	}
	if first := pub.cur.Load().snaps[0].Version; first > v-2 {
		t.Fatalf("test is vacuous: ring starts at %d, above version %d", first, v-2)
	}
	ring := fetch()
	for label, at := range times {
		path := fmt.Sprintf("/v1/state/n1?version=%d&t=%d", v, at)
		want := http.StatusOK
		if label == "before anything was published" {
			want = http.StatusNotFound
		}
		if got := ring[path]; got.status != want || (want == http.StatusOK && got.etag == "") {
			t.Fatalf("%s (%s): status %d etag %q, want %d: %s", label, path, got.status, got.etag, want, got.body)
		}
	}

	flapVersions(t, pub, 6) // push v out of the retain=4 ring
	if first := pub.cur.Load().snaps[0].Version; first <= v {
		t.Fatalf("test is vacuous: version %d still in the ring (first %d)", v, first)
	}
	disk := fetch()
	for _, path := range paths {
		r, d := ring[path], disk[path]
		if r.status != d.status || r.etag != d.etag || !bytes.Equal(r.body, d.body) {
			t.Errorf("%s drifted once version %d left the ring:\nring: %d %s %s\ndisk: %d %s %s",
				path, v, r.status, r.etag, r.body, d.status, d.etag, d.body)
		}
		if r.status != http.StatusOK {
			continue
		}
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", r.etag)
		cond, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		cond.Body.Close()
		if cond.StatusCode != http.StatusNotModified {
			t.Errorf("%s: conditional GET against the disk-served version = %d, want 304", path, cond.StatusCode)
		}
	}
}

// stateAt fetches /v1/state/n1 at a pin, optionally time-travelled, and
// returns the status with the decoded document.
func stateAt(t testing.TB, ts *httptest.Server, version uint64, at *int64) (int, client.State) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/state/n1?version=%d", ts.URL, version)
	if at != nil {
		url += fmt.Sprintf("&t=%d", *at)
	}
	code, body := get(t, url)
	var doc client.State
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: %v in %s", url, err, body)
		}
	}
	return code, doc
}

// TestUnreadableVersionIsNotEvicted: only a version the store does not
// retain is 410 snapshot_evicted. One it holds but cannot read back — the
// store was closed under the publisher, a sealed segment is corrupt — is
// a 500 internal_error naming the version and nothing of the file system.
func TestUnreadableVersionIsNotEvicted(t *testing.T) {
	wantUnreadable := func(t *testing.T, dir, url string, version uint64) {
		t.Helper()
		code, body := get(t, url)
		var env struct {
			Error struct{ Code, Message string }
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("GET %s: %d %s", url, code, body)
		}
		if code != http.StatusInternalServerError || env.Error.Code != client.CodeInternal {
			t.Fatalf("GET %s: %d %s, want 500 %s", url, code, body, client.CodeInternal)
		}
		if msg := env.Error.Message; !strings.Contains(msg, fmt.Sprintf("version %d", version)) ||
			strings.Contains(msg, dir) || strings.Contains(msg, ".seg") {
			t.Fatalf("GET %s: message %q must name version %d and no path", url, msg, version)
		}
	}

	t.Run("store closed under a live publisher", func(t *testing.T) {
		dir := t.TempDir()
		e := buildGrid(t, 2)
		st := openTestStore(t, dir, e, nil)
		pub, ts := newStoreServer(t, e, 4, st)
		flapVersions(t, pub, 9)
		early := timeOfVersion(t, pub, 3) // not 2: resolving a version caches it past the store
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		cur := pub.Current().Version
		wantUnreadable(t, dir, fmt.Sprintf("%s/v1/state/n1?version=2", ts.URL), 2)
		wantUnreadable(t, dir, fmt.Sprintf("%s/v1/state/n1?version=%d&t=%d", ts.URL, cur, early), cur)
		// The ring needs no store, and a version nobody holds is still evicted.
		if code, body := get(t, fmt.Sprintf("%s/v1/state/n1?version=%d", ts.URL, cur)); code != http.StatusOK {
			t.Fatalf("ring read with the store closed: %d %s", code, body)
		}
		if code, body := get(t, fmt.Sprintf("%s/v1/state/n1?version=%d", ts.URL, cur+10)); code != http.StatusGone {
			t.Fatalf("never-published version: %d %s, want 410", code, body)
		}
	})

	t.Run("flipped byte in a sealed segment", func(t *testing.T) {
		dir := t.TempDir()
		e1 := buildGrid(t, 2)
		st1 := openTestStore(t, dir, e1, nil)
		pub1, ts1 := newStoreServer(t, e1, 4, st1)
		flapVersions(t, pub1, 9) // SealVersions=4: versions 1-4 are sealed in the first segment
		ts1.Close()
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		sort.Strings(segs)
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/3] ^= 0x40 // inside a record of the full version 1, well before the index
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}

		e2 := buildGrid(t, 2)
		st2 := openTestStore(t, dir, e2, nil)
		defer st2.Close()
		_, ts2 := newStoreServer(t, e2, 4, st2)
		broken := 0
		for v := uint64(1); v <= 4; v++ {
			url := fmt.Sprintf("%s/v1/state/n1?version=%d", ts2.URL, v)
			if code, body := get(t, url); code == http.StatusOK {
				continue
			} else if code == http.StatusGone {
				t.Fatalf("corrupt version %d reported evicted: %s", v, body)
			}
			wantUnreadable(t, dir, url, v)
			broken++
		}
		if broken == 0 {
			t.Fatal("test is vacuous: the flipped byte broke no version of the segment")
		}
	})
}

// TestHistoryFirstEndpoint exercises the new deep-history query class
// end to end: first version where tuple X exists.
func TestHistoryFirstEndpoint(t *testing.T) {
	e := buildGrid(t, 2)
	st := openTestStore(t, t.TempDir(), e, nil)
	defer st.Close()
	pub, ts := newStoreServer(t, e, 4, st)

	churnVersions(t, pub, 3)
	marker := churnTuple("n2", 3) // not inserted by churnVersions (it only churns n1)
	if err := e.InsertFact(marker); err != nil {
		t.Fatal(err)
	}
	inserted := pub.Publish().Version
	churnVersions(t, pub, 6) // push the insertion epoch out of the ring

	code, body := get(t, ts.URL+"/v1/history/first?tuple="+queryEscape(markerLit))
	if code != http.StatusOK {
		t.Fatalf("history/first: %d %s", code, body)
	}
	var out struct {
		Node         string `json:"node"`
		FirstVersion uint64 `json:"firstVersion"`
		TimeUs       int64  `json:"virtualTimeUs"`
		Oldest       uint64 `json:"oldestVersion"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Node != "n2" || out.FirstVersion != inserted {
		t.Fatalf("first = %+v, want node n2 at version %d", out, inserted)
	}
	if out.Oldest != 1 {
		t.Fatalf("oldestVersion = %d, want 1", out.Oldest)
	}

	// A tuple the network never saw: 404 no_history.
	code, body = get(t, ts.URL+"/v1/history/first?tuple="+queryEscape("link(@'n1','n1',424242)"))
	if code != http.StatusNotFound || !bytes.Contains(body, []byte(client.CodeNoHistory)) {
		t.Fatalf("unseen tuple: %d %s", code, body)
	}
	// Unknown node: 404 unknown_node.
	code, body = get(t, ts.URL+"/v1/history/first?tuple="+queryEscape("link(@'zz','zz',1)"))
	if code != http.StatusNotFound || !bytes.Contains(body, []byte(client.CodeUnknownNode)) {
		t.Fatalf("unknown node: %d %s", code, body)
	}
	// Missing tuple parameter: 400.
	code, _ = get(t, ts.URL+"/v1/history/first")
	if code != http.StatusBadRequest {
		t.Fatalf("missing tuple: %d", code)
	}

	// Without a store the endpoint reports 501 no_history.
	e2 := buildGrid(t, 2)
	_, bare := newServer(t, e2, 4)
	code, body = get(t, bare.URL+"/v1/history/first?tuple="+queryEscape(markerLit))
	if code != http.StatusNotImplemented || !bytes.Contains(body, []byte(client.CodeNoHistory)) {
		t.Fatalf("storeless daemon: %d %s", code, body)
	}
}

// TestStoreAppendFailureStopsPublishing: a store that refuses an append
// stops the publisher instead of panicking the simulation thread. No
// version is minted past the failure, healthz turns not-ok naming the
// version and the store's error, and the current version still answers.
func TestStoreAppendFailureStopsPublishing(t *testing.T) {
	e := buildGrid(t, 2)
	pub, err := NewPublisherWithOptions(e, PublisherOptions{Store: openTestStore(t, t.TempDir(), e, nil)})
	if err != nil {
		t.Fatal(err)
	}
	srv, v := New(pub, Info{Protocol: "mincost"}), pub.Current().Version
	pub.Store().Close()
	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	var h struct {
		OK     bool
		Reason string
	}
	rec := serve(srv, "GET", "/v1/healthz", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.OK || pub.Current().Version != v ||
		!strings.Contains(h.Reason, fmt.Sprintf("version %d", v+1)) || !strings.Contains(h.Reason, "store closed") {
		t.Fatalf("after the failed append of version %d: current %d, healthz %s", v+1, pub.Current().Version, rec.Body)
	}
	q := fmt.Sprintf(`{"q":"lineage of mincost(@'n1','n2',1)","version":%d}`, v)
	if rec := serve(srv, "POST", "/v1/query", q); rec.Code != http.StatusOK {
		t.Fatalf("query at version %d: %d %s", v, rec.Code, rec.Body)
	}
}
