// Package provquery is ExSPAN's distributed provenance query engine:
// user-customizable queries evaluated by traversing the distributed
// provenance graph across nodes. Supported query types mirror the
// paper's demonstration — full lineage (proof trees), the set of
// contributing base tuples, the set of participating nodes, and the
// total number of alternative derivations — together with the
// optimizations the demo highlights: caching of previously queried
// results, alternative traversal orders (parallel vs. sequential),
// threshold-based pruning, and uniform traversal limits.
//
// The traversal itself — merge, cycle detection, pruning, limits —
// lives in internal/provgraph as a single walk over a Source. This
// package provides two of its faces: the live Client, whose walk
// crosses nodes as messages over the same simulated network as the
// protocols themselves (so the traffic reductions from the
// optimizations are directly measurable), and the SnapshotClient in
// snapshot.go, which evaluates against frozen partition views.
package provquery

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/provgraph"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// The query vocabulary is defined once in internal/provgraph and
// re-exported here so existing callers (server, viz, cmd, facade) keep
// one import.
type (
	// QueryType selects what the traversal computes.
	QueryType = provgraph.QueryType
	// Options tunes a query.
	Options = provgraph.Options
	// TupleAt is a tuple together with its home node.
	TupleAt = provgraph.TupleAt
	// ProofDeriv is one derivation step in a proof tree.
	ProofDeriv = provgraph.ProofDeriv
	// ProofNode is one tuple vertex in a proof tree.
	ProofNode = provgraph.ProofNode
	// Stats reports a query's cost.
	Stats = provgraph.Stats
	// Result is a completed query.
	Result = provgraph.Result
)

// Query types offered by the demonstration.
const (
	Lineage    = provgraph.Lineage
	BaseTuples = provgraph.BaseTuples
	Nodes      = provgraph.Nodes
	DerivCount = provgraph.DerivCount
)

// MsgKind is the simnet message kind used by query traffic.
const MsgKind = "provquery"

// Sentinel errors wrapped by every query entry point, so serving
// layers can map failures to distinct API error codes with errors.Is
// instead of string matching.
var (
	// ErrUnknownNode: the starting node does not exist in this system
	// or snapshot.
	ErrUnknownNode = errors.New("unknown node")
	// ErrNoProvenance: the node exists but records no provenance for
	// the queried tuple.
	ErrNoProvenance = provgraph.ErrNoProvenance
	// ErrNotOwned: the node exists in the network but its provenance
	// partition is not held by this (sharded) snapshot — the query
	// must be answered by the owning shard or a federating gateway.
	ErrNotOwned = errors.New("partition not held here")
)

// Service is one node's query state: its provenance partition and its
// per-node result cache.
type Service struct {
	store *provenance.Store
	cache map[provgraph.CacheKey]*cacheVal
}

type cacheVal struct {
	res     provgraph.SubResult
	version uint64
}

// Client coordinates queries over an engine's nodes. It is the live
// asynchronous adapter of the provgraph walk: cross-node expansions
// travel as request/response messages over the simulated network, and
// the walk resumes each hop on message delivery.
type Client struct {
	eng      *engine.Engine
	services map[string]*Service
	// cacheHits accumulates across the most recent query.
	cacheHits int
}

// Attach registers the provenance query service on every engine node.
func Attach(eng *engine.Engine) (*Client, error) {
	c := &Client{eng: eng, services: map[string]*Service{}}
	for _, addr := range eng.Nodes() {
		n, _ := eng.Node(addr)
		if n.Prov == nil {
			return nil, fmt.Errorf("provquery: node %s has no provenance store", addr)
		}
		c.services[addr] = &Service{store: n.Prov, cache: map[provgraph.CacheKey]*cacheVal{}}
	}
	err := eng.RegisterService(MsgKind, func(_ *engine.Node, m simnet.Message) {
		m.Payload.(*provgraph.Hop).Resume()
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Query runs a provenance query for the tuple at its owning node and
// drives the network until the result is complete.
func (c *Client) Query(typ QueryType, at string, t rel.Tuple, opts Options) (*Result, error) {
	//lint:allow ctxflow context-free compatibility entry point: callers who opt out of cancellation get a walk that runs to completion by design
	return c.QueryContext(context.Background(), typ, at, t, opts)
}

// QueryContext is Query with cancellation: once ctx is cancelled or
// its deadline passes, the walk stops expanding and unwinds, and the
// call returns an error wrapping ctx.Err() instead of a partial Result.
// Either way the network is run until the walk's last hop is delivered.
// Stats are the measured query traffic.
func (c *Client) QueryContext(ctx context.Context, typ QueryType, at string, t rel.Tuple, opts Options) (*Result, error) {
	if _, ok := c.services[at]; !ok {
		return nil, fmt.Errorf("provquery: %w %s", ErrUnknownNode, at)
	}
	c.cacheHits = 0
	start, startTime := c.eng.Net.KindTotals()[MsgKind], c.eng.Net.Now()
	res, err := provgraph.Run(ctx, liveSource{c}, typ, at, t, opts, func() { c.eng.Net.Run(0) })
	if err != nil {
		return nil, err
	}
	end := c.eng.Net.KindTotals()[MsgKind]
	res.Stats = Stats{
		Messages:  end.Messages - start.Messages,
		Bytes:     end.Bytes - start.Bytes,
		Latency:   c.eng.Net.Now() - startTime,
		CacheHits: c.cacheHits,
	}
	return res, nil
}

// InvalidateCaches clears every node's query cache (tests/benches).
func (c *Client) InvalidateCaches() {
	for _, svc := range c.services {
		svc.cache = map[provgraph.CacheKey]*cacheVal{}
	}
}

// ---- the live Source ---------------------------------------------------

// liveSource adapts the engine's per-node provenance stores to the
// provgraph walk. Partition reads are only ever issued for the location
// the walk is currently at — its own store in the distributed design —
// and cross-node hops become real simnet messages.
type liveSource struct{ c *Client }

func (ls liveSource) TupleOf(loc string, vid rel.ID) (rel.Tuple, bool) {
	return ls.c.services[loc].store.TupleOf(vid)
}

func (ls liveSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	return ls.c.services[loc].store.Derivations(vid)
}

func (ls liveSource) Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool) {
	return ls.c.services[loc].store.Exec(rid)
}

// Cross sends the hop as a message: out, the request to expand its rule
// execution at the node where it ran; back, the response. The hop
// itself is the payload, standing in for what a real request carries
// (the execution and the visited path, which the message size charges).
func (ls liveSource) Cross(h *provgraph.Hop) {
	m := simnet.Message{From: h.From(), To: h.Loc(), Kind: MsgKind, Reliable: true, Payload: h, Size: h.RequestSize()}
	if h.Back() {
		m.From, m.To, m.Size = h.Loc(), h.From(), h.ResponseSize()
	}
	ls.c.eng.Net.Send(m)
}

// Err is always nil: every node's store is local to the engine.
func (liveSource) Err() error { return nil }

func (ls liveSource) CacheGet(loc string, key provgraph.CacheKey) (provgraph.SubResult, bool) {
	s := ls.c.services[loc]
	if cv, ok := s.cache[key]; ok && cv.version == s.store.Version() {
		ls.c.cacheHits++
		return cv.res, true
	}
	return provgraph.SubResult{}, false
}

func (ls liveSource) CachePut(loc string, key provgraph.CacheKey, res provgraph.SubResult) {
	s := ls.c.services[loc]
	s.cache[key] = &cacheVal{res: res, version: s.store.Version()}
}
