package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// The connection timeouts of every served http.Server. A client that
// trickles its request header in is cut off after ReadHeaderTimeout
// instead of holding its connection forever, and a keep-alive
// connection that carries no request for IdleTimeout is closed. Neither
// bounds a request's evaluation: query deadlines are Info.Timeout's.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// ServeFlags are the flags every serving command takes, declared once
// by DeclareServeFlags.
type ServeFlags struct {
	Listen             *string
	Drain, Timeout     *time.Duration
	MaxDepth, MaxNodes *int
}

// DeclareServeFlags declares -listen, -drain, -maxdepth, -maxnodes and
// -timeout on the command line, so nettrailsd and nettrailsgw name,
// default and document them identically. Call it before flag.Parse.
func DeclareServeFlags() ServeFlags {
	return ServeFlags{
		Listen:   flag.String("listen", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)"),
		Drain:    flag.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight HTTP queries to finish"),
		MaxDepth: flag.Int("maxdepth", 0, "cap the proof depth of every served query (0 = uncapped)"),
		MaxNodes: flag.Int("maxnodes", 0, "cap the proof vertices of every served query (0 = uncapped)"),
		Timeout:  flag.Duration("timeout", 30*time.Second, "server-default deadline for each query's traversal and cap on per-request ?timeout= (0 disables)"),
	}
}

// Info is the Info the flags configure, serving protocol.
func (f ServeFlags) Info(protocol string) Info {
	return Info{Protocol: protocol, MaxDepth: *f.MaxDepth, MaxNodes: *f.MaxNodes, Timeout: *f.Timeout}
}

// NewHTTPServer is the http.Server a NetTrails process serves h with.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// ServeUntilSignal serves h on ln until the process receives SIGINT or
// SIGTERM, then shuts down gracefully: it prints the shutdown line under
// name, runs preDrain (nil for none), and gives in-flight requests up to
// drain to finish. A second signal, or the end of ctx, cuts the drain
// short. It returns nil after an orderly stop.
func ServeUntilSignal(ctx context.Context, name string, ln net.Listener, h http.Handler, drain time.Duration, preDrain func()) error {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	srv := NewHTTPServer(h)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var sig os.Signal
	select {
	case err := <-serveErr:
		return unlessClosed(err)
	case sig = <-sigs:
	}
	fmt.Printf("%s: %s: shutting down (draining for up to %s)\n", name, sig, drain)
	if preDrain != nil {
		preDrain()
	}
	dctx, cancel := context.WithTimeout(ctx, drain)
	defer cancel()
	go func() {
		select {
		case <-sigs:
			cancel()
		case <-dctx.Done():
		}
	}()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return unlessClosed(<-serveErr)
}

// unlessClosed drops the errors Serve returns for a server that was
// shut down or a listener that was closed.
func unlessClosed(err error) error {
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
