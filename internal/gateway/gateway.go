// Package gateway federates provenance queries over a sharded
// NetTrails deployment. The serving tier may split the network's
// partitions across N nettrailsd shards (nettrailsd -shard i/N), each
// publishing snapshots of only the nodes it owns; a Gateway presents
// the same /v1 query surface as a single daemon and answers it by
// running the one provgraph walk itself — resolving walk steps
// against the colocated shard's snapshot when the vertex's node lives
// there, and fanning out batched, version-pinned partition reads
// (POST /v1/prov/read, via the repro/client SDK) to the owning shard
// when it doesn't. Cross-shard lineage traversal thus mirrors the
// paper's cross-node traversal, one tier up.
//
// Epoch agreement is by version pinning: all shards of a
// deterministic run mint the same dense snapshot-version sequence, so
// the gateway pins one version on every shard per request (an
// explicit ?version=, or the minimum of the shards' current versions)
// and surfaces snapshot_evicted when any shard no longer retains it.
// Cancellation propagates: the gateway request's context threads
// through the SDK into every downstream read, so a client disconnect
// aborts in-flight shard requests mid-walk.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/provgraph"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/simnet"
)

// Gateway federates the /v1 query surface over one sharded
// deployment: it is the shard fan-out implementation of server.Backend,
// served by the same handler set as a daemon. It is safe for concurrent
// use.
type Gateway struct {
	info     server.Info
	total    int
	allNodes []string
	table    map[string]int // node -> shard index

	clients  []*client.Client // one per shard index
	localIdx int              // -1 when no colocated shard
	localPub *server.Publisher

	cache *server.ResultCache
	times sync.Map // version -> simnet.Time (immutable once learned)
	api   *server.Server
}

// Option configures a Gateway at construction.
type Option func(*Gateway)

// WithInfo sets the gateway's protocol label, traversal caps, and
// default query timeout (same semantics as the shard server's Info).
func WithInfo(info server.Info) Option { return func(g *Gateway) { g.info = info } }

// WithLocal colocates the gateway with one shard: walk steps on nodes
// that shard owns read its published snapshots directly, with no HTTP
// and no serialization. The publisher's ShardSpec places it in the
// deployment; the remaining shards' URLs still must be given to New.
func WithLocal(pub *server.Publisher) Option { return func(g *Gateway) { g.localPub = pub } }

// New discovers a sharded deployment from the shards' base URLs and
// builds its gateway. Every shard is contacted for GET /v1/shards and
// the answers must describe one coherent deployment (each index held
// exactly once, identical node lists). With WithLocal, the colocated
// shard needs no URL: urls covers the remaining shards.
func New(ctx context.Context, urls []string, opts ...Option) (*Gateway, error) {
	g := &Gateway{localIdx: -1, cache: server.NewResultCache()}
	for _, o := range opts {
		o(g)
	}

	if g.localPub == nil {
		// Pure-remote federation: the SDK's shard discovery already
		// validates the deployment's coherence.
		set, err := client.DiscoverShards(ctx, urls)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		g.total = set.Len()
		g.allNodes = set.Nodes()
		g.clients = make([]*client.Client, g.total)
		for i := range g.clients {
			g.clients[i] = set.Shard(i)
		}
	} else {
		// Colocated: the local shard fills its own slot (served through
		// an in-process round-tripper so fan-out paths stay uniform);
		// urls covers the remaining shards, validated here.
		spec := g.localPub.Shard()
		g.total = spec.Total
		if g.total < 1 {
			g.total = 1
		}
		g.localIdx = spec.Index
		snap := g.localPub.Current()
		g.allNodes = snap.AllNodes
		g.times.Store(snap.Version, snap.Time)
		g.clients = make([]*client.Client, g.total)

		srv := server.New(g.localPub, g.info)
		c, err := client.New("http://local",
			client.WithHTTPClient(&http.Client{Transport: inprocTransport{srv.Handler()}}))
		if err != nil {
			return nil, err
		}
		g.clients[g.localIdx] = c

		for _, u := range urls {
			c, err := client.New(u)
			if err != nil {
				return nil, err
			}
			sh, err := c.Shards(ctx)
			if err != nil {
				return nil, fmt.Errorf("gateway: shard discovery at %s: %w", u, err)
			}
			if sh.Shard.Total != g.total {
				return nil, fmt.Errorf("gateway: %s reports %d shards, want %d", u, sh.Shard.Total, g.total)
			}
			if sh.Shard.Index < 0 || sh.Shard.Index >= g.total {
				return nil, fmt.Errorf("gateway: %s reports shard index %d of %d", u, sh.Shard.Index, g.total)
			}
			if g.clients[sh.Shard.Index] != nil {
				return nil, fmt.Errorf("gateway: two servers claim shard %d/%d", sh.Shard.Index, g.total)
			}
			if !slices.Equal(g.allNodes, sh.AllNodes) {
				return nil, fmt.Errorf("gateway: %s disagrees about the network's node list", u)
			}
			g.clients[sh.Shard.Index] = c
		}
		for i, c := range g.clients {
			if c == nil {
				return nil, fmt.Errorf("gateway: no server for shard %d/%d", i, g.total)
			}
		}
	}
	g.table = make(map[string]int, len(g.allNodes))
	for i, addr := range g.allNodes {
		g.table[addr] = engine.OwnerOf(i, g.total)
	}
	g.api = server.NewOver(g, g.info)
	return g, nil
}

// Handler returns the root handler for http.Serve.
func (g *Gateway) Handler() http.Handler { return g }

// ServeHTTP implements http.Handler: the shared /v1 handler set over
// this backend, with the request's downstream hops — what federation
// really cost — reported in X-Shard-Hops.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hw := &hopWriter{ResponseWriter: w}
	g.api.ServeHTTP(hw, r.WithContext(context.WithValue(r.Context(), hopsKey{}, hw)))
}

// hopWriter is one request's hop ledger. The backend methods add to it
// through the request context (addHops), on the request goroutine only;
// it stamps the total on the response just before the status line.
type hopWriter struct {
	http.ResponseWriter
	hops    int
	stamped bool
}

type hopsKey struct{}

// addHops charges n downstream requests to the request ctx belongs to.
func addHops(ctx context.Context, n int) {
	if hw, ok := ctx.Value(hopsKey{}).(*hopWriter); ok {
		hw.hops += n
	}
}

func (w *hopWriter) stamp() {
	if !w.stamped {
		w.stamped = true
		w.Header().Set("X-Shard-Hops", strconv.Itoa(w.hops))
	}
}

// WriteHeader implements http.ResponseWriter.
func (w *hopWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (w *hopWriter) Write(b []byte) (int, error) {
	w.stamp()
	return w.ResponseWriter.Write(b)
}

// Nodes returns every node address of the federated network, sorted.
func (g *Gateway) Nodes() []string { return g.allNodes }

// Shards returns how many shards the gateway federates.
func (g *Gateway) Shards() int { return g.total }

// ---- downstream error mapping ------------------------------------------

// downstreamError maps a failed shard call to the gateway's own API
// error: structured shard answers pass through with their code and
// status, context failures become the standard cancellation errors,
// and everything else is a 502 shard_unreachable.
func downstreamError(err error) *server.APIError {
	var ee *evictedError
	if errors.As(err, &ee) {
		return server.Errf(http.StatusGone, server.ErrSnapshotEvicted, "%v", ee)
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		status := ae.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		return server.Errf(status, ae.Code, "shard: %s", ae.Message)
	}
	if ce, ok := server.CtxError(err); ok {
		return ce
	}
	return server.Errf(http.StatusBadGateway, server.ErrShardUnreachable, "%v", err)
}

// ---- version pinning ----------------------------------------------------

// forEachShard runs f for every shard concurrently — downstream calls
// are independent, and a serial sweep would pay one round trip of
// latency per shard — then returns the first error by shard order.
// isLocal tells f to answer from the colocated publisher, no HTTP.
func (g *Gateway) forEachShard(f func(i int, c *client.Client, isLocal bool) error) error {
	errs := make([]error, len(g.clients))
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			errs[i] = f(i, c, i == g.localIdx && g.localPub != nil)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// remoteShards counts the shards reached over HTTP by a full fan-out.
func (g *Gateway) remoteShards() int {
	if g.localIdx >= 0 && g.localPub != nil {
		return len(g.clients) - 1
	}
	return len(g.clients)
}

// shardHealth asks every shard where it stands: newest is the newest
// epoch every shard has reached (the minimum of their current
// versions), oldest the oldest every shard still retains — the
// pinnable range across the whole deployment.
func (g *Gateway) shardHealth(ctx context.Context) (newest, oldest uint64, apiErr *server.APIError) {
	versions := make([]uint64, len(g.clients))
	oldests := make([]uint64, len(g.clients))
	err := g.forEachShard(func(i int, c *client.Client, isLocal bool) error {
		if isLocal {
			versions[i] = g.localPub.Current().Version
			oldests[i], _ = g.localPub.Versions()
			return nil
		}
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		versions[i], oldests[i] = h.Version, h.Oldest
		return nil
	})
	addHops(ctx, g.remoteShards())
	if err != nil {
		return 0, 0, downstreamError(err)
	}
	return slices.Min(versions), slices.Max(oldests), nil
}

// Pin implements server.Backend: an explicit version is pinned as-is;
// version 0 resolves to the newest epoch every shard has reached.
func (g *Gateway) Pin(ctx context.Context, version uint64) (server.Pin, *server.APIError) {
	if version == 0 {
		var apiErr *server.APIError
		if version, _, apiErr = g.shardHealth(ctx); apiErr != nil {
			return server.Pin{}, apiErr
		}
	}
	t, apiErr := g.timeOf(ctx, version)
	if apiErr != nil {
		return server.Pin{}, apiErr
	}
	return server.Pin{Version: version, Time: t}, nil
}

// timeOf resolves the virtual time of a pinned version (identical on
// every shard of a deterministic run), caching it forever — versions
// are immutable.
func (g *Gateway) timeOf(ctx context.Context, version uint64) (simnet.Time, *server.APIError) {
	if t, ok := g.times.Load(version); ok {
		return t.(simnet.Time), nil
	}
	if g.localPub != nil {
		if snap, ok := g.localPub.At(version); ok {
			g.times.Store(version, snap.Time)
			return snap.Time, nil
		}
		return 0, server.Errf(http.StatusGone, server.ErrSnapshotEvicted,
			"version %d not retained by the local shard", version)
	}
	sh, err := g.clients[0].Shards(ctx, client.At(version))
	addHops(ctx, 1)
	if err != nil {
		return 0, downstreamError(err)
	}
	t := simnet.Time(sh.TimeUs)
	g.times.Store(version, t)
	return t, nil
}

// ---- query evaluation ---------------------------------------------------

// Query implements server.Backend through the gateway's result cache.
func (g *Gateway) Query(ctx context.Context, _ server.Pin, key server.CacheKey, t rel.Tuple) (*provquery.Result, bool, *server.APIError) {
	if res, ok := g.cache.Get(key); ok {
		return res, true, nil
	}
	res, apiErr := g.runWalk(ctx, key, t)
	if apiErr != nil {
		return nil, false, apiErr
	}
	g.cache.Put(key, res)
	return res, false, nil
}

// CacheCounters implements server.Backend: one cache serves every pin.
func (g *Gateway) CacheCounters(server.Pin) (hits, misses int64) { return g.cache.Counters() }

// runWalk executes the shared provgraph walk over the federated
// source. The result is byte-for-byte the one a single-process
// snapshot traversal of the same state produces: same walk, same
// modeled costs, only the partition reads travel.
func (g *Gateway) runWalk(ctx context.Context, key server.CacheKey, t rel.Tuple) (*provquery.Result, *server.APIError) {
	at, vid := key.At, key.VID
	if _, ok := g.table[at]; !ok {
		return nil, server.Errf(http.StatusNotFound, server.ErrUnknownNode,
			"provquery: unknown node %s", at)
	}
	src := newFedSource(g, ctx, key.Version)
	start := src.vertex(at, vid)
	if src.err != nil {
		return nil, downstreamError(src.err)
	}
	if !start.derivsOK {
		return nil, server.Errf(http.StatusNotFound, server.ErrNoProvenance,
			"provquery: tuple %s has no provenance at %s", t, at)
	}

	w := provgraph.NewWalkContext(ctx, src, key.Type, key.Opts)
	var out *provgraph.SubResult
	w.ResolveTuple(at, vid, nil, func(r provgraph.SubResult) { out = &r })
	for out == nil && src.err == nil && w.Err() == nil {
		if len(src.pending) == 0 {
			return nil, server.Errf(http.StatusInternalServerError, server.ErrInternal,
				"gateway: walk stalled with no pending expansions")
		}
		src.flush(w)
	}
	if err := w.Err(); err != nil {
		return nil, server.QueryError(
			fmt.Errorf("provquery: query for %s aborted after %d vertices: %w", t, w.Resolved(), err))
	}
	if src.err != nil {
		return nil, downstreamError(src.err)
	}
	if out == nil {
		return nil, server.Errf(http.StatusInternalServerError, server.ErrInternal,
			"gateway: walk did not complete")
	}
	res := provgraph.NewResult(key.Type, *out)
	res.Stats = provquery.Stats{Messages: src.msgs, Bytes: src.bytes}
	return res, nil
}

// ---- in-process transport ----------------------------------------------

// inprocTransport serves SDK calls for a colocated shard straight
// through its handler — no TCP, no listener.
type inprocTransport struct{ h http.Handler }

// RoundTrip implements http.RoundTripper over the wrapped handler.
func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rec := &inprocRecorder{code: http.StatusOK, hdr: http.Header{}}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		StatusCode: rec.code,
		Status:     http.StatusText(rec.code),
		Header:     rec.hdr,
		Body:       io.NopCloser(bufio.NewReader(bytes.NewReader(rec.buf.Bytes()))),
		Request:    req,
	}, nil
}

type inprocRecorder struct {
	code  int
	wrote bool
	hdr   http.Header
	buf   bytes.Buffer
}

// Header implements http.ResponseWriter.
func (r *inprocRecorder) Header() http.Header { return r.hdr }

// WriteHeader implements http.ResponseWriter (first write wins).
func (r *inprocRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

// Write implements http.ResponseWriter.
func (r *inprocRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.buf.Write(b)
}

// ---- federated documents ------------------------------------------------

type gwHealthzJSON struct {
	OK       bool   `json:"ok"`
	Gateway  bool   `json:"gateway"`
	Protocol string `json:"protocol"`
	Version  uint64 `json:"version"`
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	Oldest   uint64 `json:"oldestVersion"`
}

// HealthzDoc implements server.Backend by aggregating shard health.
func (g *Gateway) HealthzDoc(ctx context.Context, protocol string) (interface{}, *server.APIError) {
	out := gwHealthzJSON{OK: true, Gateway: true, Protocol: protocol,
		Nodes: len(g.allNodes), Shards: g.total}
	var apiErr *server.APIError
	out.Version, out.Oldest, apiErr = g.shardHealth(ctx)
	return out, apiErr
}

type gwShardJSON struct {
	Index int      `json:"index"`
	Nodes []string `json:"nodes"`
}

type gwShardsJSON struct {
	Gateway  bool          `json:"gateway"`
	Total    int           `json:"total"`
	Shards   []gwShardJSON `json:"shards"`
	AllNodes []string      `json:"allNodes"`
}

// ShardsDoc implements server.Backend: the federated routing table, the
// same at every pin.
func (g *Gateway) ShardsDoc(server.Pin) interface{} {
	out := gwShardsJSON{Gateway: true, Total: g.total, AllNodes: g.allNodes}
	out.Shards = make([]gwShardJSON, g.total)
	for i := range out.Shards {
		out.Shards[i] = gwShardJSON{Index: i, Nodes: []string{}}
	}
	for _, addr := range g.allNodes {
		s := &out.Shards[g.table[addr]]
		s.Nodes = append(s.Nodes, addr)
	}
	return out
}

// NodesDoc implements server.Backend: it merges every shard's owned-node
// summaries at the pinned version into the same document a
// single-process daemon serves.
func (g *Gateway) NodesDoc(ctx context.Context, pin server.Pin) (*server.NodesJSON, *server.APIError) {
	perShard := make([]*client.Nodes, len(g.clients))
	err := g.forEachShard(func(i int, c *client.Client, _ bool) error {
		ns, err := c.Nodes(ctx, client.At(pin.Version))
		perShard[i] = ns
		return err
	})
	addHops(ctx, g.remoteShards()) // the colocated shard's fetch is in-process, not a hop
	if err != nil {
		return nil, downstreamError(err)
	}
	byAddr := map[string]server.NodeJSON{}
	for _, ns := range perShard {
		for _, n := range ns.Nodes {
			byAddr[n.Addr] = server.NodeJSON{
				Addr:        n.Addr,
				Neighbors:   n.Neighbors,
				Tuples:      n.Tuples,
				ProvEntries: n.ProvEntries,
				ExecEntries: n.ExecEntries,
				SentMsgs:    n.SentMsgs,
				SentBytes:   n.SentBytes,
			}
		}
	}
	out := &server.NodesJSON{Version: pin.Version, Time: int64(pin.Time), Nodes: []server.NodeJSON{}}
	for _, addr := range g.allNodes {
		if n, ok := byAddr[addr]; ok {
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out, nil
}

func tupleJSON(t client.Tuple) server.TupleJSON {
	return server.TupleJSON{Rel: t.Rel, Vals: t.Vals, Text: t.Text}
}

// StateDoc implements server.Backend: it routes the read to the shard
// owning the node and re-renders its answer unchanged.
func (g *Gateway) StateDoc(ctx context.Context, pin server.Pin, node, relFilter string, atTime *int64) (*server.StateJSON, *server.APIError) {
	shard, ok := g.table[node]
	if !ok {
		return nil, server.Errf(http.StatusNotFound, server.ErrUnknownNode, "unknown node %q", node)
	}
	opts := []client.CallOption{client.At(pin.Version)}
	if relFilter != "" {
		opts = append(opts, client.Rel(relFilter))
	}
	if atTime != nil {
		opts = append(opts, client.AtTime(*atTime))
	}
	st, err := g.clients[shard].State(ctx, node, opts...)
	addHops(ctx, 1)
	if err != nil {
		return nil, downstreamError(err)
	}
	out := &server.StateJSON{Version: st.Version, Time: st.TimeUs, Node: st.Node,
		Tables: map[string][]server.TupleJSON{}}
	for name, ts := range st.Tables {
		rows := make([]server.TupleJSON, len(ts))
		for i, t := range ts {
			rows[i] = tupleJSON(t)
		}
		out.Tables[name] = rows
	}
	return out, nil
}

// HistoryFirstDoc implements server.Backend: it routes the probe to the
// shard owning the tuple's node and re-renders its answer unchanged —
// every shard's snapshot store mints the same dense version sequence,
// so the owning shard's answer is the deployment's answer.
func (g *Gateway) HistoryFirstDoc(ctx context.Context, lit string, _ rel.Tuple, at string) (*server.HistoryFirstJSON, *server.APIError) {
	shard, ok := g.table[at]
	if !ok {
		return nil, server.Errf(http.StatusNotFound, server.ErrUnknownNode, "unknown node %q", at)
	}
	hf, err := g.clients[shard].HistoryFirst(ctx, lit, at)
	addHops(ctx, 1)
	if err != nil {
		return nil, downstreamError(err)
	}
	return &server.HistoryFirstJSON{
		Tuple:         tupleJSON(hf.Tuple),
		Node:          hf.Node,
		FirstVersion:  hf.FirstVersion,
		TimeUs:        hf.TimeUs,
		OldestVersion: hf.Oldest,
	}, nil
}
