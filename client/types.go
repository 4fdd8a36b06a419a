package client

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Wire types of the v1 API. These types are the v1 schema (docs/API.md
// describes it): the SDK encodes the request bodies and the daemon and
// the gateway decode them, and both tiers render exactly these response
// documents and error envelopes, so a body decodes into them field for
// field. Two documents are a gateway's own: its GET /v1/healthz and
// GET /v1/shards, which carry gateway fields in their own order. The
// SDK imports nothing but the standard library.

// Response headers of the v1 API: the result cache's verdict on one
// query ("HIT" or "MISS") and the serving process's cumulative
// counters, how many of one batch's queries the cache answered, and
// the snapshot a proof.dot rendering was computed against.
const (
	HeaderCache           = "X-Cache"
	HeaderCacheHits       = "X-Cache-Hits"
	HeaderCacheMisses     = "X-Cache-Misses"
	HeaderBatchCacheHits  = "X-Batch-Cache-Hits"
	HeaderSnapshotVersion = "X-Snapshot-Version"
)

// QueryRequest is the POST /v1/query body, and one element of a
// batch's queries. Either Q (the textual query language) or Type+Tuple
// (the structured form, with optional At and Options) is set. Inside a
// batch Version must be unset: the batch pins one snapshot for every
// query it carries.
type QueryRequest struct {
	Q       string   `json:"q,omitempty"`
	Type    string   `json:"type,omitempty"`
	Tuple   string   `json:"tuple,omitempty"`
	At      string   `json:"at,omitempty"`
	Version uint64   `json:"version,omitempty"`
	Options *Options `json:"options,omitempty"`
}

// BatchRequest is the POST /v1/query/batch body.
type BatchRequest struct {
	Version uint64         `json:"version,omitempty"`
	Queries []QueryRequest `json:"queries"`
}

// BatchResponse is the POST /v1/query/batch answer: one result per
// query, in order. Each is either the QueryResult document the
// equivalent single POST /v1/query answers or an ErrorEnvelope.
type BatchResponse struct {
	Version uint64            `json:"version"`
	TimeUs  int64             `json:"virtualTimeUs"`
	Results []json.RawMessage `json:"results"`
}

// ProvReadRequest is the POST /v1/prov/read body.
type ProvReadRequest struct {
	// Version pins the snapshot every read resolves against (0 means
	// current; sharded federation always pins explicitly).
	Version uint64 `json:"version,omitempty"`
	// Reads are executed independently, results in request order.
	Reads []ProvReadOp `json:"reads"`
}

// Tuple is one tuple as the API renders it: the relation name, each
// attribute as its NDlog literal, and the full literal text.
type Tuple struct {
	Rel  string   `json:"rel"`
	Vals []string `json:"vals"`
	Text string   `json:"text"`
}

// ProofNode is one tuple vertex of a proof tree.
type ProofNode struct {
	Tuple     *Tuple  `json:"tuple,omitempty"`
	VID       string  `json:"vid"`
	Loc       string  `json:"loc"`
	Base      bool    `json:"base,omitempty"`
	Cycle     bool    `json:"cycle,omitempty"`
	Pruned    bool    `json:"pruned,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	Derivs    []Deriv `json:"derivs,omitempty"`
}

// Deriv is one derivation step: the rule, where it executed, and the
// input tuples' sub-proofs.
type Deriv struct {
	Rule     string      `json:"rule"`
	Loc      string      `json:"loc"`
	RID      string      `json:"rid"`
	Children []ProofNode `json:"children,omitempty"`
}

// Stats is the modeled traffic the equivalent live distributed
// traversal would have sent.
type Stats struct {
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`
}

// CacheInfo reports the server's result cache as observed by one call
// (from the X-Cache* response headers): whether this query was a hit,
// plus the serving process's cumulative counters.
type CacheInfo struct {
	Hit    bool
	Hits   int64
	Misses int64
}

// QueryResult is one provenance query's answer. Fields beyond the
// envelope depend on the query type: Proof/Text for lineage, Bases for
// bases, Nodes for nodes, Count for count.
type QueryResult struct {
	Version   uint64     `json:"version"`
	TimeUs    int64      `json:"virtualTimeUs"`
	Type      string     `json:"type"`
	Pruned    bool       `json:"pruned,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
	Proof     *ProofNode `json:"proof,omitempty"`
	Text      string     `json:"text,omitempty"`
	Bases     []Tuple    `json:"bases,omitempty"`
	Nodes     []string   `json:"nodes,omitempty"`
	Count     *int       `json:"count,omitempty"`
	Stats     Stats      `json:"stats"`

	// Cache is filled from response headers, not the JSON body (bodies
	// stay byte-identical per snapshot version whether cached or not).
	Cache CacheInfo `json:"-"`
}

// Health is GET /v1/healthz.
type Health struct {
	OK       bool   `json:"ok"`
	Protocol string `json:"protocol"`
	Version  uint64 `json:"version"`
	TimeUs   int64  `json:"virtualTimeUs"`
	Nodes    int    `json:"nodes"`
	Oldest   uint64 `json:"oldestVersion"`
	// Shard is present only on a sharded daemon (-shard i/N): its slice
	// of the deployment.
	Shard *ShardInfo `json:"shard,omitempty"`
	// Store is present only when the daemon runs a durable snapshot
	// store (-data): the oldest version still on disk and the newest
	// one made durable.
	Store *StoreHealth `json:"store,omitempty"`
	// Reason is present only when OK is false: why the daemon stopped
	// publishing new versions. Retained versions stay readable.
	Reason string `json:"reason,omitempty"`
}

// StoreHealth is the healthz view of a daemon's snapshot store.
type StoreHealth struct {
	Oldest  uint64 `json:"oldestVersion"`
	Durable uint64 `json:"durableVersion"`
}

// BuildInfo is GET /v1/version: the server binary's build metadata.
type BuildInfo struct {
	Module    string            `json:"module"`
	Version   string            `json:"version"`
	GoVersion string            `json:"goVersion"`
	Settings  map[string]string `json:"settings,omitempty"`
}

// Node is one element of GET /v1/nodes.
type Node struct {
	Addr        string   `json:"addr"`
	Neighbors   []string `json:"neighbors"`
	Tuples      int      `json:"tuples"`
	ProvEntries int      `json:"provEntries"`
	ExecEntries int      `json:"execEntries"`
	SentMsgs    int      `json:"sentMsgs"`
	SentBytes   int      `json:"sentBytes"`
}

// Nodes is GET /v1/nodes.
type Nodes struct {
	Version uint64 `json:"version"`
	TimeUs  int64  `json:"virtualTimeUs"`
	Nodes   []Node `json:"nodes"`
}

// State is GET /v1/state/{node}: one node's materialized tables.
type State struct {
	Version uint64             `json:"version"`
	TimeUs  int64              `json:"virtualTimeUs"`
	Node    string             `json:"node"`
	Tables  map[string][]Tuple `json:"tables"`
}

// HistoryFirst is GET /v1/history/first: the earliest retained
// version at which a tuple was visible at a node, answered from the
// daemon's on-disk snapshot store. When FirstVersion equals Oldest the
// tuple may have appeared even earlier, in history that retention has
// already deleted.
type HistoryFirst struct {
	Tuple        Tuple  `json:"tuple"`
	Node         string `json:"node"`
	FirstVersion uint64 `json:"firstVersion"`
	TimeUs       int64  `json:"virtualTimeUs"`
	Oldest       uint64 `json:"oldestVersion"`
}

// DOT is GET /v1/proof.dot: a Graphviz rendering of a lineage proof.
type DOT struct {
	// Graph is the DOT document.
	Graph string
	// Version is the snapshot the proof was computed against (from the
	// X-Snapshot-Version header).
	Version uint64
	Cache   CacheInfo
}

// Options tunes a structured query (the "options" object of
// POST /v1/query).
type Options struct {
	Threshold  int  `json:"threshold,omitempty"`
	Sequential bool `json:"sequential,omitempty"`
	MaxDepth   int  `json:"maxdepth,omitempty"`
	MaxNodes   int  `json:"maxnodes,omitempty"`
}

// ErrorEnvelope is the body of every v1 failure, and of a failed
// element of a batch's results:
//
//	{"error": {"code": "snapshot_evicted", "message": "version 3 not retained ..."}}
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// APIError is a structured failure from the v1 error envelope. Code is
// the stable machine-readable contract (e.g. "snapshot_evicted",
// "query_timeout"); Status is the HTTP status (0 inside a batch result,
// where elements have no status of their own), which travels in the
// status line, never in the envelope.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error renders the failure with its stable code and HTTP status.
func (e *APIError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("nettrails: %s (%s, http %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("nettrails: %s (%s)", e.Message, e.Code)
}

// IsCode reports whether err is (or wraps) an APIError with the given
// stable code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// Stable error codes of the v1 API (see docs/API.md for the catalog),
// each with the HTTP status the servers answer it with.
const (
	// CodeInvalidRequest: malformed body or parameters (400), or a body over the size cap (413).
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidQuery: the query text, tuple literal or query type failed to parse (400).
	CodeInvalidQuery = "invalid_query"
	// CodeInvalidOption: maxdepth, maxnodes, threshold or ?timeout= is out of range (400).
	CodeInvalidOption = "invalid_option"
	// CodeUnknownNode: no such node in the snapshot (404).
	CodeUnknownNode = "unknown_node"
	// CodeNoProvenance: the tuple has no provenance at the queried node in the pinned snapshot (404).
	CodeNoProvenance = "no_provenance"
	// CodeUnknownEndpoint: unmatched path (404).
	CodeUnknownEndpoint = "unknown_endpoint"
	// CodeMethodNotAllowed: wrong HTTP method (405, with an Allow header).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeSnapshotEvicted: the pinned version is not retained (410).
	CodeSnapshotEvicted = "snapshot_evicted"
	// CodeNoHistory: no snapshot store is attached (501), or it never saw the tuple (404).
	CodeNoHistory = "no_history"
	// CodeQueryCancelled: the client went away mid-walk (499, nginx's client-closed-request).
	CodeQueryCancelled = "query_cancelled"
	// CodeQueryTimeout: the ?timeout= or server-default deadline expired mid-walk (504).
	CodeQueryTimeout = "query_timeout"
	// CodeInternal: a server-side fault the client cannot fix by changing the request (500).
	CodeInternal = "internal_error"
	// CodeWrongShard: this shard does not own the node's partition; ask its owner or a gateway (421).
	CodeWrongShard = "wrong_shard"
	// CodeShardUnreachable: a gateway could not reach a shard, or it answered malformed (502).
	CodeShardUnreachable = "shard_unreachable"
)
