package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/client"
	"repro/internal/provquery"
)

// TestQueryErrorMapping: each traversal failure maps to its own status
// and code, and an error QueryError does not recognise is an internal
// error, never a 404 that blames the tuple.
func TestQueryErrorMapping(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer stop()
	for _, tc := range []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"unknown node", fmt.Errorf("provquery: %w n7", provquery.ErrUnknownNode), http.StatusNotFound, client.CodeUnknownNode},
		{"not owned", fmt.Errorf("provquery: node n7: %w", provquery.ErrNotOwned), http.StatusMisdirectedRequest, client.CodeWrongShard},
		{"no provenance", fmt.Errorf("provquery: tuple t has %w at n1", provquery.ErrNoProvenance), http.StatusNotFound, client.CodeNoProvenance},
		{"cancelled", fmt.Errorf("provquery: query aborted: %w", cancelled.Err()), StatusClientClosedRequest, client.CodeQueryCancelled},
		{"deadline", fmt.Errorf("provquery: query aborted: %w", expired.Err()), http.StatusGatewayTimeout, client.CodeQueryTimeout},
		{"unclassified", errors.New("provquery: query for t did not complete"), http.StatusInternalServerError, client.CodeInternal},
	} {
		got := QueryError(tc.err)
		if got.Status != tc.status || got.Code != tc.code {
			t.Errorf("%s: QueryError = %d %s, want %d %s", tc.name, got.Status, got.Code, tc.status, tc.code)
		}
	}
}
