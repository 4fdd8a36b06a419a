// Package client is the typed Go SDK for the NetTrails provenance
// query service — the versioned /v1/ HTTP API served by
// cmd/nettrailsd (see docs/API.md). It covers the full surface:
// health, build info, node summaries, per-node state, provenance
// queries (textual and structured), batch queries, and Graphviz proof
// export.
//
// Every call takes a context.Context; cancelling it (or letting its
// deadline pass) aborts the server-side traversal mid-walk, not just
// the local wait. A client-wide traversal timeout (WithTimeout) rides
// as the ?timeout= parameter on query calls.
//
// A call reads the server's current snapshot unless At pins it to a
// version. Passing the same At to several calls makes them read one
// immutable snapshot, so a multi-call workflow sees one consistent
// instant no matter how far the simulation advances in between:
//
//	h, _ := c.Health(ctx)
//	at := client.At(h.Version)
//
// A pinned version the server no longer retains surfaces as an
// APIError with CodeSnapshotEvicted.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one NetTrails server. It is immutable after New and
// safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, test servers, instrumented round-trippers).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout sets the traversal deadline sent as ?timeout= on every
// query call. The server aborts the walk when it expires and answers
// a structured CodeQueryTimeout error; servers configured with their
// own cap clamp looser values down.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// New builds a client for the server at baseURL (e.g. the address
// nettrailsd prints on startup, "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// callOpts carries per-call overrides.
type callOpts struct {
	version  uint64 // 0 means current
	rel      string
	atTimeUs *int64
	at       string
	options  *Options
}

// CallOption adjusts one call.
type CallOption func(*callOpts)

// At pins this one call to a snapshot version (0 means current).
func At(version uint64) CallOption { return func(o *callOpts) { o.version = version } }

// Rel restricts a State call to one relation.
func Rel(rel string) CallOption { return func(o *callOpts) { o.rel = rel } }

// AtTime makes a State call time-travel to the given virtual time
// (microseconds) through the server's retained history.
func AtTime(us int64) CallOption { return func(o *callOpts) { o.atTimeUs = &us } }

// AtNode overrides the node a structured query starts at (default:
// the tuple's location attribute).
func AtNode(addr string) CallOption { return func(o *callOpts) { o.at = addr } }

// WithOptions sets a structured query's traversal options.
func WithOptions(opts Options) CallOption {
	return func(o *callOpts) { o.options = &opts }
}

func applyCallOpts(opts []CallOption) callOpts {
	var o callOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// url assembles an endpoint URL with query parameters.
func (c *Client) url(path string, params url.Values) string {
	if len(params) == 0 {
		return c.base + path
	}
	return c.base + path + "?" + params.Encode()
}

// queryParams returns the shared parameters of query-evaluating calls.
func (c *Client) queryParams() url.Values {
	p := url.Values{}
	if c.timeout > 0 {
		p.Set("timeout", c.timeout.String())
	}
	return p
}

// do issues the request and decodes either the expected body or the
// error envelope.
func (c *Client) do(ctx context.Context, method, rawURL string, body []byte, out interface{}) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, decodeAPIError(resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("client: decode %s response: %w", rawURL, err)
		}
	}
	return resp.Header, nil
}

// doRaw is do for non-JSON success bodies (proof.dot).
func (c *Client) doRaw(ctx context.Context, rawURL string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", rawURL, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, nil, decodeAPIError(resp.StatusCode, data)
	}
	return data, resp.Header, nil
}

// maxPresize caps the buffer sized from a response's Content-Length
// before any byte has arrived; a longer body is read by growing.
const maxPresize = 8 << 20

// readBody reads a whole response body — into one buffer of the
// declared length when the server sent one, instead of growing from
// 512 bytes.
func readBody(resp *http.Response) ([]byte, error) {
	var data []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxPresize {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("client: read response: %w", err)
	}
	return data, nil
}

// decodeAPIError turns an error response into an *APIError, falling
// back to a generic one for non-envelope bodies.
func decodeAPIError(status int, body []byte) error {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		e := env.Error
		e.Status = status
		return &e
	}
	return &APIError{Status: status, Message: strings.TrimSpace(string(body))}
}

// cacheInfo extracts the X-Cache* headers.
func cacheInfo(h http.Header) CacheInfo {
	hits, _ := strconv.ParseInt(h.Get(HeaderCacheHits), 10, 64)
	misses, _ := strconv.ParseInt(h.Get(HeaderCacheMisses), 10, 64)
	return CacheInfo{Hit: h.Get(HeaderCache) == "HIT", Hits: hits, Misses: misses}
}
