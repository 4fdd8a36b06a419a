package provquery

import (
	"context"
	"fmt"

	"repro/internal/provenance"
	"repro/internal/provgraph"
	"repro/internal/rel"
)

// This file is the snapshot-isolated face of the query engine. The live
// Client executes queries as messages inside the discrete-event
// simulation, which makes every query a simulation event: it advances
// virtual time and must run on the simulation thread. A SnapshotClient
// instead evaluates the same provgraph walk against frozen, immutable
// provenance views (provenance.View), so any number of goroutines can
// query concurrently — and lock-free — while the simulation keeps
// advancing. nettrailsd serves every HTTP query this way.

// PartitionView is the read-only surface of one node's provenance
// partition that snapshot query evaluation needs. Both the live
// *provenance.Store and the frozen *provenance.View implement it; the
// latter is what makes concurrent evaluation safe without locks. A
// store's Derivations list is borrowed: valid only until its next
// mutation.
type PartitionView interface {
	Derivations(vid rel.ID) ([]provenance.Entry, bool)
	Exec(rid rel.ID) (provenance.ExecEntry, bool)
	TupleOf(vid rel.ID) (rel.Tuple, bool)
}

var (
	_ PartitionView = (*provenance.Store)(nil)
	_ PartitionView = (*provenance.View)(nil)
)

// ViewResolver resolves node addresses to partition views. It is the
// pluggable lookup behind SnapshotClient: the snapshot publisher hands
// its own (O(1), allocation-free) resolver straight to the client
// instead of materializing a map of views on every publish.
// Implementations must be immutable once a client is built over them.
type ViewResolver interface {
	// PartitionView returns the view of addr's partition; ok is false
	// when this resolver does not hold it.
	PartitionView(addr string) (PartitionView, bool)
	// KnownNode reports whether addr is a node of the wider network even
	// though its partition may not be held here (a sharded deployment).
	// Resolvers that hold the whole network return false: an unresolved
	// address is then simply unknown.
	KnownNode(addr string) bool
}

// SnapshotClient answers provenance queries against a fixed resolver of
// per-node partition views. It is immutable after construction; a
// single SnapshotClient may serve many goroutines concurrently when
// its views are immutable (e.g. provenance.View). Each Query builds its
// own walk state, so no state is shared between concurrent queries.
type SnapshotClient struct {
	src ViewResolver
}

// mapViewSet is the map-backed ViewResolver NewSnapshotClient wraps:
// views keyed by address, covering the whole network.
type mapViewSet map[string]PartitionView

func (m mapViewSet) PartitionView(addr string) (PartitionView, bool) {
	v, ok := m[addr]
	return v, ok
}

func (m mapViewSet) KnownNode(string) bool { return false }

// NewResolverClient builds a client directly over a ViewResolver. The
// resolver must be immutable for the client's lifetime.
func NewResolverClient(src ViewResolver) *SnapshotClient {
	return &SnapshotClient{src: src}
}

// NewSnapshotClient builds a client over per-node views keyed by node
// address. The map is used as-is and must not be mutated afterwards.
func NewSnapshotClient(views map[string]PartitionView) *SnapshotClient {
	return NewResolverClient(mapViewSet(views))
}

// Query evaluates a provenance query of the given type for the tuple at
// node `at`, entirely against the frozen views. Result semantics match
// the live Client.Query — both run the identical provgraph walk, so
// proof trees, base-tuple sets, node sets, derivation counts, and
// truncation frontiers (for path-based limits, and for the node budget
// under Sequential order) are the same for the same state. Stats are
// modeled, not measured: Messages/Bytes count the request/response
// traffic the live traversal would have sent (each cross-node expansion
// is one request plus one response); Latency is zero because no virtual
// time passes in a snapshot. Options.UseCache is a no-op here: the
// per-node caches belong to live nodes, and internal/server memoizes
// whole results per version in its result cache instead.
func (c *SnapshotClient) Query(typ QueryType, at string, t rel.Tuple, opts Options) (*Result, error) {
	//lint:allow ctxflow context-free compatibility entry point: callers who opt out of cancellation get a walk that runs to completion by design
	return c.QueryContext(context.Background(), typ, at, t, opts)
}

// QueryContext is Query with cancellation: once ctx is cancelled or
// its deadline passes, the synchronous walk stops expanding at the
// next vertex and the call returns an error wrapping ctx.Err() instead
// of a partial Result.
func (c *SnapshotClient) QueryContext(ctx context.Context, typ QueryType, at string, t rel.Tuple, opts Options) (*Result, error) {
	if _, ok := c.src.PartitionView(at); !ok {
		if c.src.KnownNode(at) {
			return nil, fmt.Errorf("provquery: node %s: %w", at, ErrNotOwned)
		}
		return nil, fmt.Errorf("provquery: %w %s", ErrUnknownNode, at)
	}
	return provgraph.Run(ctx, &snapSource{src: c.src}, typ, at, t, opts, nil)
}

// snapSource adapts frozen per-node views to the provgraph walk: every
// hop resumes at once. One snapSource serves exactly one query.
type snapSource struct {
	src ViewResolver
	// err is set when the walk reads a known node whose partition is
	// not held here, turning the whole query into an ErrNotOwned failure.
	err error
}

// view resolves loc's partition view, recording a cross-shard escape
// when loc is a known network node whose partition is not held here.
func (s *snapSource) view(loc string) (PartitionView, bool) {
	v, ok := s.src.PartitionView(loc)
	if !ok && s.src.KnownNode(loc) && s.err == nil {
		s.err = fmt.Errorf("provquery: query crossed to node %s: %w", loc, ErrNotOwned)
	}
	return v, ok
}

func (s *snapSource) Err() error { return s.err }

func (s *snapSource) TupleOf(loc string, vid rel.ID) (rel.Tuple, bool) {
	if v, ok := s.view(loc); ok {
		return v.TupleOf(vid)
	}
	return rel.Tuple{}, false
}

func (s *snapSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	if v, ok := s.view(loc); ok {
		return v.Derivations(vid)
	}
	return nil, false
}

func (s *snapSource) Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool) {
	if v, ok := s.view(loc); ok {
		return v.Exec(rid)
	}
	return provenance.ExecEntry{}, false
}

// Cross resumes the hop at once.
func (s *snapSource) Cross(h *provgraph.Hop) { h.Resume() }
