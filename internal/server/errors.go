package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/client"
)

// The v1 API reports every failure as one machine-readable envelope,
// client.ErrorEnvelope. The code is a stable contract — clients branch
// on it; the message is human-readable detail and may change freely.
// Each code is spelled once, as the SDK's Code* constant; this catalog
// says when the server uses it.
const (
	// ErrInvalidRequest: malformed body or parameters (400), or a body
	// over MaxBodyBytes (413).
	ErrInvalidRequest = client.CodeInvalidRequest
	// ErrInvalidQuery: the query text, tuple literal, or query type
	// failed to parse (400).
	ErrInvalidQuery = client.CodeInvalidQuery
	// ErrInvalidOption: a traversal option (maxdepth/maxnodes/threshold)
	// or ?timeout= value is out of range (400).
	ErrInvalidOption = client.CodeInvalidOption
	// ErrUnknownNode: no such node in the snapshot (404).
	ErrUnknownNode = client.CodeUnknownNode
	// ErrNoProvenance: the tuple has no provenance at the queried node
	// in the pinned snapshot (404).
	ErrNoProvenance = client.CodeNoProvenance
	// ErrUnknownEndpoint: unmatched path (404).
	ErrUnknownEndpoint = client.CodeUnknownEndpoint
	// ErrMethodNotAllowed: wrong HTTP method (405, with an Allow header).
	ErrMethodNotAllowed = client.CodeMethodNotAllowed
	// ErrSnapshotEvicted: the pinned version aged out of the retention
	// ring (410).
	ErrSnapshotEvicted = client.CodeSnapshotEvicted
	// ErrNoHistory: a deep-history query needs the on-disk snapshot
	// store and either none is attached (501) or the store has no
	// sighting of the tuple in its retained history (404).
	ErrNoHistory = client.CodeNoHistory
	// ErrQueryCancelled: the client went away mid-walk; the traversal
	// was aborted (499, nginx's client-closed-request convention).
	ErrQueryCancelled = client.CodeQueryCancelled
	// ErrQueryTimeout: the ?timeout=/server-default deadline expired
	// mid-walk (504).
	ErrQueryTimeout = client.CodeQueryTimeout
	// ErrInternal: a server-side fault the client cannot fix by
	// changing the request (500).
	ErrInternal = client.CodeInternal
	// ErrWrongShard: this server is one shard of a sharded deployment
	// and does not own the requested node's partition — or a query's
	// traversal crossed onto a partition it does not hold. Ask the
	// owning shard, or a gateway (421 Misdirected Request).
	ErrWrongShard = client.CodeWrongShard
	// ErrShardUnreachable: a gateway could not reach a downstream
	// shard (or the shard answered with a malformed response) while
	// federating a request (502).
	ErrShardUnreachable = client.CodeShardUnreachable
)

// StatusClientClosedRequest is the non-standard 499 status reported
// when a cancelled client connection aborts a traversal. The client is
// gone, so the code is for logs and tests, not for the caller.
const StatusClientClosedRequest = 499

// APIError is a failure travelling inside a handler before it is
// rendered: HTTP status code, stable machine-readable error code, and
// human-readable message. It is exported so the gateway tier
// (internal/gateway) renders the exact same envelope as the shards.
type APIError struct {
	// Status is the HTTP status the envelope is written with.
	Status int
	// Code is the stable machine-readable contract (the catalog above).
	Code string
	// Message is human-readable detail; it may change freely.
	Message string
}

// Error implements the error interface with the human-readable detail.
func (e *APIError) Error() string { return e.Message }

// Errf builds an *APIError with a printf-formatted message.
func Errf(status int, code, format string, args ...interface{}) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// CtxError maps a context failure observed mid-walk to its structured
// API error; ok is false for every other error.
func CtxError(err error) (*APIError, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Errf(http.StatusGatewayTimeout, ErrQueryTimeout, "%v", err), true
	case errors.Is(err, context.Canceled):
		return Errf(StatusClientClosedRequest, ErrQueryCancelled, "%v", err), true
	}
	return nil, false
}

// WriteAPIError renders an APIError as the uniform envelope.
func WriteAPIError(w http.ResponseWriter, e *APIError) {
	WriteJSON(w, e.Status, client.ErrorEnvelope{Error: client.APIError{Code: e.Code, Message: e.Message}})
}

// WriteErr is the one-shot form of WriteAPIError.
func WriteErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	WriteAPIError(w, Errf(status, code, format, args...))
}

// MarshalError renders an APIError as a compact JSON envelope — the
// per-item error form inside a batch response.
func MarshalError(e *APIError) json.RawMessage {
	b, _ := json.Marshal(client.ErrorEnvelope{Error: client.APIError{Code: e.Code, Message: e.Message}})
	return b
}
