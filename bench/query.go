package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	nettrails "repro"
	"repro/client"
	"repro/internal/gateway"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/routeviews"
	"repro/internal/scenario"
	"repro/internal/server"
)

// Sizes of the query deployments and working sets (constants, like the
// maintenance sizes).
const (
	daemonASes    = 1000 // query_cold, query_hot: one daemon
	gatewayASes   = 320  // query_gateway_churn: three engines converge per set-up, so each is smaller
	queryOrigins  = 16
	gatewayShards = 3

	coldTuples    = 500 // x4 query types = 2000 ops a round, routeEntry and outputRoute
	hotTuples     = 256 // x4 = 1024 pairs, routeEntry only
	gatewayTuples = 96  // x4 = 384 pairs, routeEntry only
	churnEvery    = 16  // gateway: one base-fact churn per this many queries

	// resultCacheEntries is the server's per-snapshot result cache bound
	// (server.maxQueryCacheEntries); the hot set has to fit it.
	resultCacheEntries = 4096
)

// The four query types of the paper, as the structured request spells
// them.
var queryTypes = []string{"lineage", "bases", "nodes", "count"}

// pair is one (tuple, query type) request of a working set.
type pair struct {
	tuple   rel.Tuple
	at      string
	typ     int
	litJSON []byte // the tuple literal as a JSON string
}

// reply is what the client keeps of one response.
type reply struct {
	status int
	cache  string
	hops   int
	body   []byte // valid until the next post
}

// queryWorkload is one serving deployment (a daemon, or three shards
// behind a gateway) and its round: one closed-loop client asking every
// pair of the working set once, in a seeded order.
type queryWorkload struct {
	name string
	seed int64

	deps    []*nettrails.BGPDeployment
	pubs    []*server.Publisher
	servers []*httptest.Server // the daemon(s)
	front   *httptest.Server   // what the client talks to: the daemon itself, or the gateway
	shards  []*client.Client   // gateway only: SDK clients straight to the shards, for hop timing
	hc      *http.Client
	buf     bytes.Buffer

	pairs []pair
	order []int
	ref   []uint32 // per pair: CRC of the reference body below its version and time lines

	convergeS float64
	pinned    uint64 // version the next query pins (0: unpinned)
	want      uint64 // version the next reply must carry
	churned   int    // churn events so far
	warm      bool   // warm-up round: record references instead of comparing

	// Tallies over every query since set-up.
	hits, misses int
	hopSum       int
	bodyBytes    int64
	churnTime    time.Duration
	churnEvents  int

	// Traced-pass state.
	merged   *provquery.SnapshotClient // gateway: one in-process client over the shards' views
	mergedAt uint64
	vertices int
	lineages int
}

func newQueryWorkload(name string, seed int64) *queryWorkload {
	return &queryWorkload{name: name, seed: seed}
}

func (q *queryWorkload) describe() string {
	return fmt.Sprintf("bgp ases=%d origins=%d daemons=%d ops/round=%d", q.ases(), queryOrigins, len(q.pubs), len(q.pairs))
}

func (q *queryWorkload) ases() int {
	if q.name == wlQueryGateway {
		return gatewayASes
	}
	return daemonASes
}

func (q *queryWorkload) setup(clock *calibClock) error {
	*q = queryWorkload{name: q.name, seed: q.seed}
	n := 1
	if q.name == wlQueryGateway {
		n = gatewayShards
	}
	g, err := routeviews.GenerateASGraph(routeviews.ASGraphOptions{Nodes: q.ases(), Seed: 1})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		d, err := nettrails.NewBGPDeployment(g.ASes, scenario.Links(g), nettrails.Config{Seed: 1})
		if err != nil {
			return err
		}
		if err := originate(d, g.ASes, queryOrigins, clock); err != nil {
			return err
		}
		q.deps = append(q.deps, d)
	}
	q.convergeS = clock.lap()

	info := server.Info{Protocol: "bgp"}
	urls := make([]string, n)
	for i, d := range q.deps {
		popts := server.PublisherOptions{}
		if n > 1 {
			popts.Shard = server.ShardSpec{Index: i, Total: n}
		}
		if q.name == wlQueryCold {
			// Every cold round runs on a fresh version; keeping only two
			// bounds how many full result caches stay alive.
			popts.Retain = 2
		}
		clock.tick()
		pub, err := server.NewPublisherWithOptions(d.Eng, popts)
		if err != nil {
			return err
		}
		q.pubs = append(q.pubs, pub)
		ts := httptest.NewServer(server.New(pub, info))
		q.servers = append(q.servers, ts)
		urls[i] = ts.URL
	}
	q.front = q.servers[0]
	if n > 1 {
		gw, err := gateway.New(context.Background(), urls, gateway.WithInfo(info))
		if err != nil {
			return err
		}
		q.front = httptest.NewServer(gw)
		for _, u := range urls {
			c, err := client.New(u)
			if err != nil {
				return err
			}
			q.shards = append(q.shards, c)
		}
	}
	q.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}

	clock.tick()
	q.chooseWorkingSet()
	if q.name == wlQueryHot && len(q.pairs) > resultCacheEntries {
		return fmt.Errorf("hot set of %d pairs exceeds the %d-entry result cache", len(q.pairs), resultCacheEntries)
	}
	clock.tick()
	q.ref = make([]uint32, len(q.pairs))
	q.want = q.pubs[0].Current().Version
	if q.name == wlQueryHot {
		q.pinned = q.want
	}

	// Warm-up: one round records the reference body of every pair (and,
	// on the hot workload, fills the result cache), then a sample of the
	// references is checked against an in-process walk of the same state.
	q.warm = true
	rec := newRecorder(nil, clock)
	q.round(rec)
	q.warm = false
	if rec.failed > 0 {
		return fmt.Errorf("warm-up round: %d ops failed", rec.failed)
	}
	q.hits, q.misses, q.hopSum, q.bodyBytes, q.churnTime, q.churnEvents = 0, 0, 0, 0, 0, 0
	return q.checkReferences()
}

// chooseWorkingSet takes an even cross-section of the published route
// tuples. Proof sizes are heavy-tailed (a few large-fan-out ASes carry
// most of the bytes), so the set is the same for every seed and the
// seed only orders it; a seeded draw of this size would move every
// latency metric by more than any optimisation.
func (q *queryWorkload) chooseWorkingSet() {
	rels := []string{"routeEntry"}
	count := hotTuples
	switch q.name {
	case wlQueryCold:
		rels, count = []string{"routeEntry", "outputRoute"}, coldTuples
	case wlQueryGateway:
		count = gatewayTuples
	}
	byNode := map[string][]rel.Tuple{}
	for _, pub := range q.pubs {
		snap := pub.Current()
		for _, addr := range snap.Nodes {
			tables, _ := snap.NodeTables(addr)
			for _, name := range rels {
				tables[name].Scan(func(t rel.Tuple) bool {
					byNode[addr] = append(byNode[addr], t)
					return true
				})
			}
		}
	}
	var all []rel.Tuple
	var at []string
	for _, addr := range q.pubs[0].Current().AllNodes {
		for _, t := range byNode[addr] {
			all = append(all, t)
			at = append(at, addr)
		}
	}
	q.pairs = crossSection(all, at, count)
	q.order = rand.New(rand.NewSource(q.seed)).Perm(len(q.pairs))
}

// crossSection picks count tuples evenly spaced over the population (in
// its node order) and pairs each with every query type. No pair repeats,
// so a round over it on a fresh snapshot never hits the result cache.
func crossSection(all []rel.Tuple, at []string, count int) []pair {
	var pairs []pair
	for i := 0; i < count; i++ {
		k := i * len(all) / count
		lit, _ := json.Marshal(scenario.TupleLiteral(all[k])) // a string always marshals
		for typ := range queryTypes {
			pairs = append(pairs, pair{tuple: all[k], at: at[k], typ: typ, litJSON: lit})
		}
	}
	return pairs
}

func (q *queryWorkload) teardown() {
	if q.front != nil && len(q.servers) > 0 && q.front != q.servers[0] {
		q.front.Close()
	}
	for _, ts := range q.servers {
		ts.Close()
	}
	for _, pub := range q.pubs {
		pub.Detach()
	}
	if q.hc != nil {
		q.hc.CloseIdleConnections()
	}
	*q = queryWorkload{name: q.name, seed: q.seed}
}

// churn inserts (even events) or retracts (odd) one synthetic base fact
// — the scenario catalog's churn shape: a routeEntry for a reserved
// prefix, which nothing derives from — on every engine in lockstep, so
// each publisher mints the same next version.
func (q *queryWorkload) churn(rec *recorder) {
	as := q.pubs[0].Current().AllNodes[0]
	fact := rel.NewTuple("routeEntry", rel.Addr(as), rel.Str(fmt.Sprintf("198.18.%d.0/24", q.churned/2%256)))
	id := rec.tr.begin("engine.churn", -1, -1)
	t0 := time.Now()
	for _, d := range q.deps {
		var err error
		if q.churned%2 == 0 {
			err = d.Eng.InsertFact(fact)
		} else {
			err = d.Eng.DeleteFact(fact)
		}
		if err != nil {
			rec.fail(fmt.Errorf("churn event %d: %w", q.churned, err))
		}
	}
	q.churnTime += time.Since(t0)
	rec.tr.end(id)
	q.churned++
	q.churnEvents++
	q.want++
	for i, pub := range q.pubs {
		if v := pub.Current().Version; v != q.want {
			rec.fail(fmt.Errorf("churn event %d: publisher %d at version %d, want %d", q.churned, i, v, q.want))
		}
	}
}

func (q *queryWorkload) round(rec *recorder) {
	if q.name == wlQueryCold {
		// A fresh snapshot has an empty result cache: the same pairs are
		// misses again, round after round.
		q.churn(rec)
		q.pinned = q.want
	}
	for n, i := range q.order {
		if q.name == wlQueryGateway && n%churnEvery == 0 {
			q.churn(rec)
		}
		q.query(rec, i)
	}
}

func (q *queryWorkload) requestBody(i int) []byte {
	p := q.pairs[i]
	b := make([]byte, 0, 160)
	b = append(b, `{"type":"`...)
	b = append(b, queryTypes[p.typ]...)
	b = append(b, `","tuple":`...)
	b = append(b, p.litJSON...)
	if q.pinned != 0 {
		b = append(b, `,"version":`...)
		b = strconv.AppendUint(b, q.pinned, 10)
	}
	return append(b, '}')
}

// query is one op: POST /v1/query, read the whole body, then (outside
// the op's latency) check the reply.
func (q *queryWorkload) query(rec *recorder, i int) {
	body := q.requestBody(i)
	var r reply
	rec.op(func() error { return q.post(q.front.URL+"/v1/query", body, &r) })
	if r.status == 0 {
		return // transport error, already counted
	}
	if err := q.verify(i, &r); err != nil {
		rec.fail(fmt.Errorf("%s of %s: %w", queryTypes[q.pairs[i].typ], q.pairs[i].tuple, err))
	}
}

func (q *queryWorkload) post(url string, body []byte, r *reply) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := q.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	q.buf.Reset()
	if _, err := q.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	r.hops, _ = strconv.Atoi(resp.Header.Get("X-Shard-Hops")) // absent on a daemon: 0
	r.body = q.buf.Bytes()
	return nil
}

// splitVersion cuts a query response into the version it carries and
// the body below the version and virtual-time lines, the part that must
// not change while the queried tuple's provenance does not.
func splitVersion(body []byte) (version uint64, rest []byte, err error) {
	const head = "{\n  \"version\": "
	const timeKey = "  \"virtualTimeUs\": "
	if !bytes.HasPrefix(body, []byte(head)) {
		return 0, nil, fmt.Errorf("body does not start with a version: %.40q", body)
	}
	rest = body[len(head):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 1 {
		return 0, nil, fmt.Errorf("truncated body")
	}
	version, err = strconv.ParseUint(string(bytes.TrimSuffix(rest[:nl], []byte(","))), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad version line: %w", err)
	}
	rest = rest[nl+1:]
	if !bytes.HasPrefix(rest, []byte(timeKey)) {
		return 0, nil, fmt.Errorf("no virtual-time line after the version")
	}
	nl = bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return 0, nil, fmt.Errorf("truncated body")
	}
	return version, rest[nl+1:], nil
}

// verify checks one reply: 200, the expected snapshot version, the
// expected cache verdict, and a body equal to the pair's reference.
func (q *queryWorkload) verify(i int, r *reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	version, rest, err := splitVersion(r.body)
	if err != nil {
		return err
	}
	if version != q.want {
		return fmt.Errorf("answered at version %d, want %d", version, q.want)
	}
	if r.cache == "HIT" {
		q.hits++
	} else {
		q.misses++
	}
	q.hopSum += r.hops
	q.bodyBytes += int64(len(r.body))
	sum := crc32.ChecksumIEEE(rest)
	if q.warm {
		q.ref[i] = sum
		return nil
	}
	switch {
	case q.name == wlQueryCold && r.cache != "MISS":
		return fmt.Errorf("X-Cache %q on the cold workload", r.cache)
	case q.name == wlQueryHot && r.cache != "HIT":
		return fmt.Errorf("X-Cache %q on the hot workload", r.cache)
	case sum != q.ref[i]:
		return fmt.Errorf("body differs from the reference recorded in warm-up")
	}
	return nil
}

// check has nothing to add: every reply was verified as it arrived.
func (q *queryWorkload) check() []error { return nil }

// walkSource returns an in-process query function over the state the
// next reply is answered from: the daemon's snapshot, or the three shards' partition views
// joined into one (what a single process serving the whole network
// would walk).
func (q *queryWorkload) walkSource() (version uint64, timeUs int64, query func(provquery.QueryType, string, rel.Tuple, provquery.Options) (*provquery.Result, error)) {
	snap := q.pubs[0].Current()
	if len(q.pubs) == 1 {
		if q.pinned != 0 {
			snap, _ = q.pubs[0].At(q.pinned)
		}
		return snap.Version, int64(snap.Time), snap.Query
	}
	if q.merged == nil || q.mergedAt != snap.Version {
		views := map[string]provquery.PartitionView{}
		for _, pub := range q.pubs {
			s := pub.Current()
			for _, addr := range s.Nodes {
				views[addr], _ = s.PartitionView(addr)
			}
		}
		q.merged, q.mergedAt = provquery.NewSnapshotClient(views), snap.Version
	}
	return snap.Version, int64(snap.Time), q.merged.Query
}

// render is what the handler does with a finished walk: build the
// response document and write it with the encoder every tier serves.
func render(version uint64, timeUs int64, res *provquery.Result, w *bytes.Buffer) {
	server.WriteJSON(&httptest.ResponseRecorder{Body: w}, http.StatusOK, server.RenderQueryResponse(version, timeUs, res))
}

// checkReferences walks a sample of the working set in process and
// demands the very bytes HTTP answered in warm-up (on the gateway: the
// bytes a single process would have answered).
func (q *queryWorkload) checkReferences() error {
	version, timeUs, query := q.walkSource()
	var buf bytes.Buffer
	for i := 0; i < len(q.pairs); i += 7 {
		p := q.pairs[i]
		typ, err := provquery.ParseQueryType(queryTypes[p.typ])
		if err != nil {
			return err
		}
		res, err := query(typ, p.at, p.tuple, provquery.Options{})
		if err != nil {
			return fmt.Errorf("in-process %s of %s: %w", queryTypes[p.typ], p.tuple, err)
		}
		buf.Reset()
		render(version, timeUs, res, &buf)
		_, rest, err := splitVersion(buf.Bytes())
		if err != nil {
			return err
		}
		if crc32.ChecksumIEEE(rest) != q.ref[i] {
			return fmt.Errorf("%s of %s: HTTP body differs from the in-process rendering", queryTypes[p.typ], p.tuple)
		}
	}
	return nil
}

// Span names of the stage-by-stage replay of one request.
const (
	spanReplay  = "replay"
	spanParse   = "provquery.parse"
	spanResolve = "server.resolve"
	spanWalk    = "provquery.walk"
	spanHit     = "server.cache_hit"
	spanRender  = "server.render"
	spanHop     = "gateway.hop"
)

// replay repeats one request of the working set stage by stage through
// the public functions the handler itself calls, each stage in a span,
// and checks that the stages end in the reference body. It runs after
// the traced pass, not between its ops: the stages allocate as much as
// the handler does, and interleaved they slowed the very ops they
// explain by 10-50%.
func (q *queryWorkload) replay(tr *tracer, i int) error {
	root := tr.begin(spanReplay, -1, i)
	defer tr.end(root)

	id := tr.begin(spanParse, root, i)
	var req server.QueryRequest
	if err := json.NewDecoder(bytes.NewReader(q.requestBody(i))).Decode(&req); err != nil {
		return err
	}
	typ, t, at, opts, apiErr := server.ResolveQueryRequest(&req)
	tr.end(id)
	if apiErr != nil {
		return fmt.Errorf("resolve request: %s", apiErr.Code)
	}

	id = tr.begin(spanResolve, root, i)
	version, timeUs, query := q.walkSource()
	tr.end(id)

	var res *provquery.Result
	var err error
	if q.name == wlQueryHot {
		snap, _ := q.pubs[0].At(q.pinned)
		id = tr.begin(spanHit, root, i)
		var hit bool
		res, hit, err = snap.CachedQuery(typ, at, t, opts)
		tr.end(id)
		if err == nil && !hit {
			err = fmt.Errorf("CachedQuery missed on a warm key")
		}
	} else {
		id = tr.begin(spanWalk, root, i)
		res, err = query(typ, at, t, opts)
		tr.end(id)
	}
	if err != nil {
		return err
	}
	if res.Root != nil {
		q.vertices += res.Root.Size()
		q.lineages++
	}

	id = tr.begin(spanRender, root, i)
	q.buf.Reset()
	render(version, timeUs, res, &q.buf)
	tr.end(id)
	if _, rest, err := splitVersion(q.buf.Bytes()); err != nil || crc32.ChecksumIEEE(rest) != q.ref[i] {
		return fmt.Errorf("the stages end in a body that differs from the reference")
	}

	return nil
}

// probeHop times one hop as the gateway makes it during a walk: a
// single-op prov read, through the SDK, to the shard that owns the
// queried tuple's node. Probes run back to back, as a walk's hops do.
func (q *queryWorkload) probeHop(tr *tracer, i int) error {
	p := q.pairs[i]
	owner := 0
	for s, pub := range q.pubs {
		if _, ok := pub.Current().PartitionView(p.at); ok {
			owner = s
		}
	}
	id := tr.begin(spanHop, -1, i)
	_, err := q.shards[owner].ProvRead(context.Background(), q.want,
		[]client.ProvReadOp{{Op: server.ProvReadVertex, Loc: p.at, ID: p.tuple.VID().String()}})
	tr.end(id)
	return err
}

// layers runs the traced pass and derives the query-path layer metrics.
func (q *queryWorkload) layers(rep *layerReport) error {
	out, tr := rep.metrics, rep.tr
	out["engine.converge_s"] = q.convergeS
	_, traced := rep.tracedPair(q)
	from := len(tr.spans)
	clock := newCalibClock()
	for _, i := range q.order {
		if err := q.replay(tr, i); err != nil {
			rep.failed++
			logf("bench: FAILED: replay %s of %s: %v", queryTypes[q.pairs[i].typ], q.pairs[i].tuple, err)
		}
		clock.tick()
	}
	replayed := clock.factor(0)
	probes := len(clock.samples) - 1
	if len(q.shards) > 0 {
		for _, i := range q.order {
			if err := q.probeHop(tr, i); err != nil {
				return fmt.Errorf("prov read: %w", err)
			}
			clock.tick()
		}
	}
	self := selfTimes(tr.spans, from)
	// per is a stage's mean self time over the working set.
	per := func(name string) float64 { return ms(self[name]) / float64(len(q.order)) }

	out["provquery.parse_ms"] = per(spanParse) / replayed
	out["server.resolve_ms"] = per(spanResolve) / replayed
	out["provquery.walk_ms"] = per(spanWalk) / replayed
	out["server.cache_hit_ms"] = per(spanHit) / replayed
	out["server.render_ms"] = per(spanRender) / replayed
	if q.lineages > 0 {
		out["provquery.vertices_per_query"] = float64(q.vertices) / float64(q.lineages)
	}
	answered := float64(q.hits + q.misses)
	out["server.cache_hit_ratio"] = float64(q.hits) / answered
	out["server.response_kb"] = float64(q.bodyBytes) / answered / 1024

	latency := mean(traced.scaled)
	stages := out["provquery.parse_ms"] + out["server.render_ms"]
	if len(q.shards) == 0 {
		// A daemon: what the stages leave of the latency is HTTP (client,
		// loopback, net/http server, header and body copies).
		stages += out["server.resolve_ms"] + out["provquery.walk_ms"] + out["server.cache_hit_ms"]
		out["server.http_ms"] = latency - stages
	} else {
		hops := float64(q.hopSum) / answered
		out["gateway.hops_per_query"] = hops
		out["gateway.hop_ms"] = per(spanHop) / clock.factor(probes)
		out["gateway.self_ms"] = latency - stages - hops*out["gateway.hop_ms"]
		out["engine.churn_ms"] = ms(q.churnTime) / float64(q.churnEvents) / median(rep.factors)
	}
	return nil
}
