// Package gateway federates provenance queries over a sharded
// NetTrails deployment. The serving tier may split the network's
// partitions across N nettrailsd shards (nettrailsd -shard i/N), each
// publishing snapshots of only the nodes it owns; a Gateway presents
// the same /v1 query surface as a single daemon and answers it by
// running the one provgraph walk itself, resolving every walk step by
// a batched, version-pinned partition read (POST /v1/prov/read, via the
// repro/client SDK) against the shard that owns the vertex's node — the
// only way the gateway reaches a shard. Cross-shard lineage traversal
// thus mirrors the paper's cross-node traversal, one tier up.
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
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/client"
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
	info   server.Info
	shards *client.ShardSet // the discovered deployment: clients and routing

	cache *server.ResultCache
	api   *server.Server

	timesMu sync.Mutex
	times   map[uint64]simnet.Time // version -> virtual time, for the versions still pinnable
}

// Option configures a Gateway at construction.
type Option func(*Gateway)

// WithInfo sets the gateway's protocol label, traversal caps, and
// default query timeout (same semantics as the shard server's Info).
func WithInfo(info server.Info) Option { return func(g *Gateway) { g.info = info } }

// New discovers a sharded deployment from the shards' base URLs and
// builds its gateway. Every shard is contacted for GET /v1/shards and
// the answers must describe one coherent deployment (each index held
// exactly once, identical node lists, every node owned by exactly one
// shard); client.DiscoverShards is the one place that is validated.
func New(ctx context.Context, urls []string, opts ...Option) (*Gateway, error) {
	g := &Gateway{cache: server.NewResultCache(), times: map[uint64]simnet.Time{}}
	for _, o := range opts {
		o(g)
	}
	set, err := client.DiscoverShards(ctx, urls)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	g.shards = set
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
func (g *Gateway) Nodes() []string { return g.shards.Nodes() }

// Shards returns how many shards the gateway federates.
func (g *Gateway) Shards() int { return g.shards.Len() }

// ---- downstream error mapping ------------------------------------------

// downstreamError maps a failed shard call to the gateway's own API
// error: structured shard answers pass through with their code and
// status, context failures become the standard cancellation errors,
// and everything else is a 502 shard_unreachable.
func downstreamError(err error) *client.APIError {
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
	return server.Errf(http.StatusBadGateway, client.CodeShardUnreachable, "%v", err)
}

// ---- version pinning ----------------------------------------------------

// forEachShard runs f for every shard concurrently — downstream calls
// are independent, and a serial sweep would pay one round trip of
// latency per shard — then returns the first error by shard order.
func (g *Gateway) forEachShard(f func(i int, c *client.Client) error) error {
	errs := make([]error, g.shards.Len())
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i, g.shards.Shard(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardHealth asks every shard where it stands: newest is the newest
// epoch every shard has reached (the minimum of their current
// versions), oldest the oldest every shard still retains — the
// pinnable range across the whole deployment — and reason, when a
// shard is not ok, why the first such shard says it is not. Learning
// oldest is also what bounds g.times and the result cache: a version
// below it can no longer be pinned on every shard, so both drop it.
func (g *Gateway) shardHealth(ctx context.Context) (newest, oldest uint64, reason string, apiErr *client.APIError) {
	hs := make([]*client.Health, g.shards.Len())
	err := g.forEachShard(func(i int, c *client.Client) (err error) {
		hs[i], err = c.Health(ctx)
		return err
	})
	addHops(ctx, g.shards.Len())
	if err != nil {
		return 0, 0, "", downstreamError(err)
	}
	newest, oldest = hs[0].Version, hs[0].Oldest
	for i, h := range hs {
		newest, oldest = min(newest, h.Version), max(oldest, h.Oldest)
		if !h.OK && reason == "" {
			reason = fmt.Sprintf("shard %d: %s", i, h.Reason)
		}
	}
	g.timesMu.Lock()
	for v := range g.times {
		if v < oldest {
			delete(g.times, v)
			g.cache.Drop(v)
		}
	}
	g.timesMu.Unlock()
	return newest, oldest, reason, nil
}

// Pin implements server.Backend: an explicit version is pinned as-is;
// version 0 resolves to the newest epoch every shard has reached.
func (g *Gateway) Pin(ctx context.Context, version uint64) (server.Pin, *client.APIError) {
	if version == 0 {
		var apiErr *client.APIError
		if version, _, _, apiErr = g.shardHealth(ctx); apiErr != nil {
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
// every shard of a deterministic run) and remembers it while the
// version stays pinnable — versions are immutable.
func (g *Gateway) timeOf(ctx context.Context, version uint64) (simnet.Time, *client.APIError) {
	g.timesMu.Lock()
	t, ok := g.times[version]
	g.timesMu.Unlock()
	if ok {
		return t, nil
	}
	sh, err := g.shards.Shard(0).Shards(ctx, client.At(version))
	addHops(ctx, 1)
	if err != nil {
		return 0, downstreamError(err)
	}
	t = simnet.Time(sh.TimeUs)
	g.timesMu.Lock()
	g.times[version] = t
	g.timesMu.Unlock()
	return t, nil
}

// ---- query evaluation ---------------------------------------------------

// Walk implements server.Backend: it executes the shared provgraph walk
// over the federated source. The result is byte-for-byte the one a
// single-process snapshot traversal of the same state produces: same
// walk, same modeled costs, only the partition reads travel.
func (g *Gateway) Walk(ctx context.Context, _ server.Pin, key server.CacheKey, t rel.Tuple) (*provquery.Result, error) {
	if _, ok := g.shards.OwnerOf(key.At); !ok {
		return nil, fmt.Errorf("provquery: %w %s", provquery.ErrUnknownNode, key.At)
	}
	src := newFedSource(g, ctx, key.Version)
	res, err := provgraph.Run(ctx, src, key.Type, key.At, t, key.Opts, src.flush)
	if src.err != nil { // a shard read failed: err is that failure or the walk's cancellation
		return nil, downstreamError(err)
	}
	return res, err
}

// ResultCache implements server.Backend: one cache serves every pin.
func (g *Gateway) ResultCache() *server.ResultCache { return g.cache }

// ---- federated documents ------------------------------------------------

type gwHealthzJSON struct {
	OK       bool   `json:"ok"`
	Gateway  bool   `json:"gateway"`
	Protocol string `json:"protocol"`
	Version  uint64 `json:"version"`
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	Oldest   uint64 `json:"oldestVersion"`
	Reason   string `json:"reason,omitempty"`
}

// HealthzDoc implements server.Backend by aggregating shard health: the
// gateway is ok only while every shard is.
func (g *Gateway) HealthzDoc(ctx context.Context, protocol string) (interface{}, *client.APIError) {
	out := gwHealthzJSON{Gateway: true, Protocol: protocol,
		Nodes: len(g.shards.Nodes()), Shards: g.shards.Len()}
	var apiErr *client.APIError
	out.Version, out.Oldest, out.Reason, apiErr = g.shardHealth(ctx)
	out.OK = out.Reason == ""
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
	out := gwShardsJSON{Gateway: true, Total: g.shards.Len(), AllNodes: g.shards.Nodes()}
	out.Shards = make([]gwShardJSON, g.shards.Len())
	for i := range out.Shards {
		out.Shards[i] = gwShardJSON{Index: i, Nodes: []string{}}
	}
	for _, addr := range g.shards.Nodes() {
		owner, _ := g.shards.OwnerOf(addr)
		s := &out.Shards[owner]
		s.Nodes = append(s.Nodes, addr)
	}
	return out
}

// NodesDoc implements server.Backend: it merges every shard's owned-node
// summaries at the pinned version into the same document a
// single-process daemon serves.
func (g *Gateway) NodesDoc(ctx context.Context, pin server.Pin) (*client.Nodes, *client.APIError) {
	perShard := make([]*client.Nodes, g.shards.Len())
	err := g.forEachShard(func(i int, c *client.Client) error {
		ns, err := c.Nodes(ctx, client.At(pin.Version))
		perShard[i] = ns
		return err
	})
	addHops(ctx, g.shards.Len())
	if err != nil {
		return nil, downstreamError(err)
	}
	byAddr := map[string]client.Node{}
	for _, ns := range perShard {
		for _, n := range ns.Nodes {
			byAddr[n.Addr] = n
		}
	}
	out := &client.Nodes{Version: pin.Version, TimeUs: int64(pin.Time), Nodes: []client.Node{}}
	for _, addr := range g.shards.Nodes() {
		if n, ok := byAddr[addr]; ok {
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out, nil
}

// StateDoc implements server.Backend: it routes the read to the shard
// owning the node and returns that shard's document as it came.
func (g *Gateway) StateDoc(ctx context.Context, pin server.Pin, node, relFilter string, atTime *int64) (*client.State, *client.APIError) {
	shard, ok := g.shards.ForNode(node)
	if !ok {
		return nil, server.Errf(http.StatusNotFound, client.CodeUnknownNode, "unknown node %q", node)
	}
	opts := []client.CallOption{client.At(pin.Version)}
	if relFilter != "" {
		opts = append(opts, client.Rel(relFilter))
	}
	if atTime != nil {
		opts = append(opts, client.AtTime(*atTime))
	}
	st, err := shard.State(ctx, node, opts...)
	addHops(ctx, 1)
	if err != nil {
		return nil, downstreamError(err)
	}
	return st, nil
}

// HistoryFirstDoc implements server.Backend: it routes the probe to the
// shard owning the tuple's node and returns that shard's document as it
// came — every shard's snapshot store mints the same dense version
// sequence, so the owning shard's answer is the deployment's answer.
func (g *Gateway) HistoryFirstDoc(ctx context.Context, lit string, _ rel.Tuple, at string) (*client.HistoryFirst, *client.APIError) {
	shard, ok := g.shards.ForNode(at)
	if !ok {
		return nil, server.Errf(http.StatusNotFound, client.CodeUnknownNode, "unknown node %q", at)
	}
	hf, err := shard.HistoryFirst(ctx, lit, at)
	addHops(ctx, 1)
	if err != nil {
		return nil, downstreamError(err)
	}
	return hf, nil
}
