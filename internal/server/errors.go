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
// on it, and each is spelled once, as the SDK's Code* constant, whose
// comment gives the status it is served with; the message is
// human-readable detail and may change freely. A failure travels
// inside a handler as a *client.APIError, and Errf is the one place
// the serving tiers build one.

// StatusClientClosedRequest is the non-standard 499 status reported
// when a cancelled client connection aborts a traversal. The client is
// gone, so the code is for logs and tests, not for the caller.
const StatusClientClosedRequest = 499

// Errf builds an API error with a printf-formatted message.
func Errf(status int, code, format string, args ...interface{}) *client.APIError {
	return &client.APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// CtxError maps a context failure observed mid-walk to its structured
// API error; ok is false for every other error.
func CtxError(err error) (*client.APIError, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Errf(http.StatusGatewayTimeout, client.CodeQueryTimeout, "%v", err), true
	case errors.Is(err, context.Canceled):
		return Errf(StatusClientClosedRequest, client.CodeQueryCancelled, "%v", err), true
	}
	return nil, false
}

// WriteAPIError renders an API error as the uniform envelope.
func WriteAPIError(w http.ResponseWriter, e *client.APIError) {
	WriteJSON(w, e.Status, client.ErrorEnvelope{Error: *e})
}

// WriteErr is the one-shot form of WriteAPIError.
func WriteErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	WriteAPIError(w, Errf(status, code, format, args...))
}

// MarshalError renders an API error as a compact JSON envelope — the
// per-item error form inside a batch response.
func MarshalError(e *client.APIError) json.RawMessage {
	b, _ := json.Marshal(client.ErrorEnvelope{Error: *e})
	return b
}
