package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
)

// Health reports liveness and the current snapshot coordinates.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if _, err := c.do(ctx, "GET", c.url("/v1/healthz", nil), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ServerVersion reports the server binary's build metadata.
func (c *Client) ServerVersion(ctx context.Context) (*BuildInfo, error) {
	var out BuildInfo
	if _, err := c.do(ctx, "GET", c.url("/v1/version", nil), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Nodes returns the per-node summary of the current snapshot, or of
// the one At pins.
func (c *Client) Nodes(ctx context.Context, opts ...CallOption) (*Nodes, error) {
	o := applyCallOpts(opts)
	p := url.Values{}
	if o.version > 0 {
		p.Set("version", strconv.FormatUint(o.version, 10))
	}
	var out Nodes
	if _, err := c.do(ctx, "GET", c.url("/v1/nodes", p), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// State returns one node's materialized tables. Rel restricts to a
// single relation; AtTime time-travels through the retained history.
func (c *Client) State(ctx context.Context, node string, opts ...CallOption) (*State, error) {
	o := applyCallOpts(opts)
	p := url.Values{}
	if o.version > 0 {
		p.Set("version", strconv.FormatUint(o.version, 10))
	}
	if o.rel != "" {
		p.Set("rel", o.rel)
	}
	if o.atTimeUs != nil {
		p.Set("t", strconv.FormatInt(*o.atTimeUs, 10))
	}
	var out State
	if _, err := c.do(ctx, "GET", c.url("/v1/state/"+url.PathEscape(node), p), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (c *Client) runQuery(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var out QueryResult
	h, err := c.do(ctx, "POST", c.url("/v1/query", c.queryParams()), body, &out)
	if err != nil {
		return nil, err
	}
	out.Cache = cacheInfo(h)
	return &out, nil
}

// Query evaluates a textual provenance query (the query-language
// grammar of docs/API.md), e.g.
//
//	res, err := c.Query(ctx, "lineage of mincost(@'n1','n3',2)")
func (c *Client) Query(ctx context.Context, q string, opts ...CallOption) (*QueryResult, error) {
	o := applyCallOpts(opts)
	return c.runQuery(ctx, QueryRequest{Q: q, Version: o.version})
}

// structuredQuery runs one structured query of the given type.
func (c *Client) structuredQuery(ctx context.Context, typ, tuple string, opts []CallOption) (*QueryResult, error) {
	o := applyCallOpts(opts)
	return c.runQuery(ctx, QueryRequest{
		Type: typ, Tuple: tuple, At: o.at, Version: o.version, Options: o.options,
	})
}

// Lineage returns the full proof tree of a tuple literal, e.g.
// "mincost(@'n1','n3',2)".
func (c *Client) Lineage(ctx context.Context, tuple string, opts ...CallOption) (*QueryResult, error) {
	return c.structuredQuery(ctx, "lineage", tuple, opts)
}

// Bases returns the set of base tuples the tuple's derivations depend
// on.
func (c *Client) Bases(ctx context.Context, tuple string, opts ...CallOption) (*QueryResult, error) {
	return c.structuredQuery(ctx, "bases", tuple, opts)
}

// NodesOf returns the set of nodes that participated in any
// derivation of the tuple.
func (c *Client) NodesOf(ctx context.Context, tuple string, opts ...CallOption) (*QueryResult, error) {
	return c.structuredQuery(ctx, "nodes", tuple, opts)
}

// HistoryFirst asks the earliest retained version at which the tuple
// was visible — at its location attribute, or at the explicit at node.
// It needs a daemon running with a snapshot store (-data); without one
// the call fails with CodeNoHistory.
func (c *Client) HistoryFirst(ctx context.Context, tuple, at string) (*HistoryFirst, error) {
	p := url.Values{}
	p.Set("tuple", tuple)
	if at != "" {
		p.Set("at", at)
	}
	var out HistoryFirst
	if _, err := c.do(ctx, "GET", c.url("/v1/history/first", p), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Count returns the number of alternative derivations of the tuple.
func (c *Client) Count(ctx context.Context, tuple string, opts ...CallOption) (*QueryResult, error) {
	return c.structuredQuery(ctx, "count", tuple, opts)
}

// BatchQuery is one element of a QueryBatch: either a textual query Q
// or a structured Type+Tuple (with optional At/Options), exactly as in
// single queries. Versions are per-batch, never per-element.
type BatchQuery struct {
	Q       string
	Type    string
	Tuple   string
	At      string
	Options *Options
}

// BatchItem is one element of a batch's results: exactly one of
// Result and Err is set.
type BatchItem struct {
	Result *QueryResult
	Err    *APIError
}

// BatchResult is the answer to a QueryBatch: one item per query, in
// order, all evaluated against the same pinned snapshot.
type BatchResult struct {
	Version uint64
	TimeUs  int64
	Results []BatchItem
	// CacheHits counts how many of this batch's queries were answered
	// from the result cache (X-Batch-Cache-Hits); Cache carries the
	// serving process's cumulative counters.
	CacheHits int
	Cache     CacheInfo
}

// batchElem decodes one batch result in one pass: json allocates the
// envelope only when the element has an "error" key.
type batchElem struct {
	*ErrorEnvelope
	QueryResult
}

// QueryBatch evaluates many queries against one pinned snapshot in a
// single round trip. All queries share the snapshot's sub-proof
// cache, so repeated or overlapping queries inside the batch are
// answered without re-traversal. Per-query failures (e.g. a tuple
// with no provenance) land in their BatchItem.Err without failing the
// neighbours; batch-level failures (bad request, evicted snapshot,
// timeout, cancellation) fail the whole call.
func (c *Client) QueryBatch(ctx context.Context, queries []BatchQuery, opts ...CallOption) (*BatchResult, error) {
	o := applyCallOpts(opts)
	req := BatchRequest{Version: o.version}
	for _, q := range queries {
		req.Queries = append(req.Queries, QueryRequest{
			Q: q.Q, Type: q.Type, Tuple: q.Tuple, At: q.At, Options: q.Options,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var resp BatchResponse
	h, err := c.do(ctx, "POST", c.url("/v1/query/batch", c.queryParams()), body, &resp)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{Version: resp.Version, TimeUs: resp.TimeUs, Cache: cacheInfo(h)}
	out.CacheHits, _ = strconv.Atoi(h.Get(HeaderBatchCacheHits))
	elems := make([]batchElem, len(resp.Results))
	out.Results = make([]BatchItem, len(resp.Results))
	for i, raw := range resp.Results {
		el := &elems[i]
		if err := json.Unmarshal(raw, el); err != nil {
			return nil, fmt.Errorf("client: decode batch result %d: %w", i, err)
		}
		if el.ErrorEnvelope != nil {
			out.Results[i].Err = &el.Error
		} else {
			out.Results[i].Result = &el.QueryResult
		}
	}
	return out, nil
}

// ProofDOT renders the lineage of a tuple literal as a Graphviz DOT
// document.
func (c *Client) ProofDOT(ctx context.Context, tuple string, opts ...CallOption) (*DOT, error) {
	o := applyCallOpts(opts)
	p := c.queryParams()
	p.Set("tuple", tuple)
	if o.at != "" {
		p.Set("at", o.at)
	}
	if o.version > 0 {
		p.Set("version", strconv.FormatUint(o.version, 10))
	}
	data, h, err := c.doRaw(ctx, c.url("/v1/proof.dot", p))
	if err != nil {
		return nil, err
	}
	version, _ := strconv.ParseUint(h.Get(HeaderSnapshotVersion), 10, 64)
	return &DOT{Graph: string(data), Version: version, Cache: cacheInfo(h)}, nil
}
