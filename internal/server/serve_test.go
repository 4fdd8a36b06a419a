package server

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts: every served http.Server bounds how long a
// client may take to send its request header and how long an idle
// keep-alive connection stays open.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := NewHTTPServer(h)
	if srv.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != ReadHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != IdleTimeout {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, IdleTimeout)
	}
}
