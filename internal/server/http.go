package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/client"
	"repro/internal/buildinfo"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/viz"
)

// Info configures a server instance: its /healthz label plus the
// traversal caps applied to every query it serves.
type Info struct {
	// Protocol is the human-readable workload name (e.g. "mincost",
	// "bgp").
	Protocol string
	// MaxDepth / MaxNodes cap the traversal limits of every query
	// served over HTTP (0 = uncapped). Requests may ask for tighter
	// limits; absent or looser limits are clamped down to the cap and
	// the result is marked truncated where the cap bites.
	MaxDepth int
	MaxNodes int
	// Timeout is the server-default deadline for each query's
	// traversal, and the cap on the per-request ?timeout= override
	// (tighter requests win, looser ones are clamped). 0 means no
	// default deadline and no cap. A deadline that expires mid-walk
	// aborts the traversal with a structured query_timeout error;
	// a client disconnect aborts it with query_cancelled.
	Timeout time.Duration
}

// Server is the /v1 handler set: the one HTTP JSON face of every
// serving tier, written against a Backend. Each request is validated in
// one order whatever the tier — the free 400s (body shape, query parse,
// options, ?timeout, ?version syntax), then the pin (410), then
// ETag/304 for GETs, then evaluation. All handlers read published
// snapshots only; none ever touches live engine state, so any number of
// requests run concurrently with the simulation.
type Server struct {
	b    Backend
	info Info
	mux  *http.ServeMux

	// provReads counts prov-read ops served (see provread.go).
	provReads atomic.Int64
}

// New builds the HTTP API over a publisher: the shared /v1 surface plus
// the shard-federation read protocol only a daemon serves.
func New(pub *Publisher, info Info) *Server {
	s := NewOver(pub, info)
	s.route("POST", "/v1/prov/read", s.handleProvRead)
	return s
}

// NewOver builds the shared /v1 surface over any Backend.
func NewOver(b Backend, info Info) *Server {
	s := &Server{b: b, info: info, mux: http.NewServeMux()}
	s.route("GET", "/v1/healthz", s.handleHealthz)
	s.route("GET", "/v1/version", s.handleVersion)
	s.route("GET", "/v1/shards", s.handleShards)
	s.route("GET", "/v1/nodes", s.handleNodes)
	s.route("GET", "/v1/state/{node}", s.handleState)
	s.route("GET", "/v1/history/first", s.handleHistoryFirst)
	s.route("POST", "/v1/query", s.handleQuery)
	s.route("POST", "/v1/query/batch", s.handleQueryBatch)
	s.route("GET", "/v1/proof.dot", s.handleProofDOT)
	// Anything else is a structured JSON 404, not the mux's plain-text
	// default.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteErr(w, http.StatusNotFound, client.CodeUnknownEndpoint, "unknown endpoint %s", r.URL.Path)
	})
	return s
}

// endpoint is one route's handler. It writes its own success response;
// a failure it returns instead, so every error envelope of the surface
// leaves through the one WriteAPIError call in route.
type endpoint func(w http.ResponseWriter, r *http.Request) *client.APIError

// route registers an endpoint for one method on pattern, and a
// structured JSON 405 (with the Allow header) for every other method
// on it.
func (s *Server) route(method, pattern string, h endpoint) {
	s.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		if apiErr := h(w, r); apiErr != nil {
			WriteAPIError(w, apiErr)
		}
	})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", method)
		WriteErr(w, http.StatusMethodNotAllowed, client.CodeMethodNotAllowed,
			"method %s not allowed on %s (allow %s)", r.Method, r.URL.Path, method)
	})
}

// ClampOptions applies the Info's traversal caps to a request's
// options: absent or looser request limits are clamped down to the
// caps, tighter ones win.
func (i Info) ClampOptions(o provquery.Options) provquery.Options {
	if i.MaxDepth > 0 && (o.MaxDepth == 0 || o.MaxDepth > i.MaxDepth) {
		o.MaxDepth = i.MaxDepth
	}
	if i.MaxNodes > 0 && (o.MaxNodes == 0 || o.MaxNodes > i.MaxNodes) {
		o.MaxNodes = i.MaxNodes
	}
	return o
}

// maxOptionValue bounds request-supplied traversal options. Values
// past it cannot describe a real proof in any scenario this system
// runs; they are configuration mistakes and are rejected up front
// rather than silently accepted.
const maxOptionValue = 1 << 20

// validateOptions rejects out-of-range traversal options at the API
// boundary: negative values (which the walk would silently treat as
// "unlimited") and absurdly large ones. The textual grammar rejects
// these at parse time; this guards the structured form.
func validateOptions(o provquery.Options) *client.APIError {
	for _, f := range []struct {
		name string
		v    int
	}{{"threshold", o.Threshold}, {"maxdepth", o.MaxDepth}, {"maxnodes", o.MaxNodes}} {
		if f.v < 0 {
			return Errf(http.StatusBadRequest, client.CodeInvalidOption,
				"%s must be >= 0, got %d", f.name, f.v)
		}
		if f.v > maxOptionValue {
			return Errf(http.StatusBadRequest, client.CodeInvalidOption,
				"%s %d exceeds the maximum %d", f.name, f.v, maxOptionValue)
		}
	}
	return nil
}

// RequestContext derives the traversal context for one request: the
// client's own context (so a disconnect cancels the walk) bounded by
// the ?timeout= deadline or the serverDefault, whichever is tighter.
func RequestContext(r *http.Request, serverDefault time.Duration) (context.Context, context.CancelFunc, *client.APIError) {
	d := serverDefault
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		td, err := time.ParseDuration(raw)
		if err != nil || td <= 0 {
			return nil, nil, Errf(http.StatusBadRequest, client.CodeInvalidOption,
				"bad timeout %q (want a positive Go duration like 500ms)", raw)
		}
		if d == 0 || td < d {
			d = td
		}
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// Handler returns the root handler for http.Serve.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- JSON shapes -------------------------------------------------------

// The /v1 documents are the repro/client types: the SDK declares the wire
// schema once, and both tiers render it.

// JSONTuple renders one tuple as its wire form: the relation name, each
// attribute as its NDlog literal, and the full literal text. The text is
// rendered once, as rel.Tuple.AppendLiteral does, and each attribute is
// the span of it that its literal took.
func JSONTuple(t rel.Tuple) client.Tuple {
	var (
		buf   [256]byte
		spans [8][2]int
	)
	b, at := append(append(buf[:0], t.Rel...), '('), spans[:0]
	for i, v := range t.Vals {
		if i > 0 {
			b = append(b, ", "...)
		} else if v.Kind() == rel.KindAddr {
			b = append(b, '@')
		}
		start := len(b)
		b = v.AppendLiteral(b)
		at = append(at, [2]int{start, len(b)})
	}
	text := string(append(b, ')'))
	vals := make([]string, len(at))
	for i, sp := range at {
		vals[i] = text[sp[0]:sp[1]]
	}
	return client.Tuple{Rel: t.Rel, Vals: vals, Text: text}
}

// JSONProof renders one proof-tree vertex (recursively) as its wire
// form.
func JSONProof(p *provquery.ProofNode) client.ProofNode {
	out := client.ProofNode{
		VID:       p.VID.Short(),
		Loc:       p.Loc,
		Base:      p.Base,
		Cycle:     p.Cycle,
		Pruned:    p.Pruned,
		Truncated: p.Truncated,
	}
	if p.Tuple.Rel != "" {
		t := JSONTuple(p.Tuple)
		out.Tuple = &t
	}
	if len(p.Derivs) > 0 {
		out.Derivs = make([]client.Deriv, len(p.Derivs))
	}
	for i, d := range p.Derivs {
		dj := &out.Derivs[i]
		*dj = client.Deriv{Rule: d.Rule, Loc: d.RLoc, RID: d.RID.Short()}
		if len(d.Children) > 0 {
			dj.Children = make([]client.ProofNode, len(d.Children))
		}
		for j, c := range d.Children {
			dj.Children[j] = JSONProof(c)
		}
	}
	return out
}

// chunkSize is the size of a body sink's one buffer. A body that fits
// all of it but the last countRoom bytes leaves in one Write. A larger
// one is counted on through those bytes, while the head stays in the
// rest, and then streamed through the whole buffer.
const (
	chunkSize = 128 << 10
	countRoom = 16 << 10
)

// bodySink is the json.Encoder's writer. The Encoder hands it a value's
// whole compact encoding in one Write, and only once encoding has
// succeeded; the sink indents that onto the response through its one
// chunk, so no body needs a buffer of its own but the one keep is given.
type bodySink struct {
	enc   *json.Encoder // encodes into this sink
	chunk []byte        // the indentation buffer, cap chunkSize

	// The response being written.
	w    http.ResponseWriter
	code int
	keep func(body []byte)

	mode sinkMode
	n    int // bytes counted
}

// sinkMode is what indent does when the room left in its buffer may not
// hold the next byte's output.
type sinkMode uint8

const (
	fill  sinkMode = iota // stop there
	whole                 // go on: the buffer is the body's counted size
	count                 // count the buffer in n and start it over
	send                  // write the buffer to the response and start it over
)

var sinkPool = sync.Pool{New: func() any {
	s := &bodySink{chunk: make([]byte, 0, chunkSize)}
	s.enc = json.NewEncoder(s)
	return s
}}

// WriteJSON writes v as the canonical two-space-indented JSON body
// every tier of the API serves, so shard and gateway bodies can be
// compared byte for byte. The body's length is known before the status
// line leaves, so it goes out under its Content-Length, and a value that
// does not encode is the internal_error 500, not a 200 cut short.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) { writeJSON(w, code, v, nil) }

// writeJSON is WriteJSON; keep, when non-nil, is handed the whole body
// in a buffer of exactly its size, which keep then owns: it may retain
// the bytes, and nothing else writes them.
func writeJSON(w http.ResponseWriter, code int, v interface{}, keep func(body []byte)) {
	s := sinkPool.Get().(*bodySink)
	s.w, s.code, s.keep = w, code, keep
	// Write fails nothing, so an error is a value that did not encode,
	// and nothing of it was written.
	err := s.enc.Encode(v)
	*s = bodySink{enc: s.enc, chunk: s.chunk}
	sinkPool.Put(s)
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, client.CodeInternal, "encode response: %v", err)
	}
}

// Write indents src, one value's compact encoding, onto the response.
// The chunk is filled first, and a body that fits is sent from it in
// one Write. A larger body is sized by counting on from where the chunk
// filled; then the head is sent under that length and the rest streamed
// through the chunk or, when keep wants the body, both are indented into
// one buffer of exactly that size.
func (s *bodySink) Write(src []byte) (int, error) {
	head, at, done := s.indent(s.chunk[:0:chunkSize-countRoom], src, indentState{})
	size := len(head)
	if !done {
		s.mode = count
		rest, _, _ := s.indent(s.chunk[size:size], src, at)
		s.emit(rest)
		size += s.n
	}
	switch {
	case s.keep != nil:
		s.mode = whole
		body, _, _ := s.indent(append(make([]byte, 0, size), head...), src, at)
		// Kept before it is sent: a client that has the response finds
		// the body admitted.
		s.keep(body)
		writeBody(s.w, s.code, body)
	case done:
		writeBody(s.w, s.code, head)
	default:
		startBody(s.w, s.code, size)
		s.mode = send
		s.emit(head)
		rest, _, _ := s.indent(s.chunk[:0], src, at)
		s.emit(rest)
	}
	return len(src), nil
}

// indent is one level of a body's indentation; blanks holds the deepest
// run appendNewline copies at once.
const (
	indent = "  "
	blanks = "                                                                "
)

// indentState is where the indenter stands in a compact encoding: the
// next byte, the depth, and whether the last byte opened an object or
// array.
type indentState struct {
	i      int
	depth  int
	opened bool
}

// indent is the one indentation state machine. From at, it appends
// src, compact JSON as json.Encoder writes it, to dst indented exactly
// as json.Indent(dst, src, "", indent) would: a newline and the depth's
// indentation after each opening bracket and comma and before each
// closing bracket, except that an empty object or array stays {} or [],
// and ": " after a key. Strings are copied as they are. It is one pass
// over the bytes, with no scanner state per byte.
//
// Before each byte, and before each string's bytes, it checks that dst
// has room for them. When it has not and the sink cannot make room, a
// fill stops: indent returns dst, the state there, and done false.
func (s *bodySink) indent(dst, src []byte, at indentState) (out []byte, stop indentState, done bool) {
	depth, opened := at.depth, at.opened
	ok := true
	// dst holds a byte's output outside a string, at most two newlines,
	// while its length is within limit.
	limit := cap(dst) - 4*(depth+2)
	for i := at.i; i < len(src); i++ {
		if len(dst) > limit {
			if dst, ok = s.makeRoom(dst); !ok {
				return dst, indentState{i, depth, opened}, false
			}
		}
		c := src[i]
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			limit -= 4
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i+1)
			if str := src[i:end]; len(str) <= cap(dst)-len(dst) {
				dst = append(dst, str...)
			} else if dst, ok = s.spillString(dst, str); !ok {
				return dst, indentState{i, depth, opened}, false
			}
			i = end - 1
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if opened {
				opened = false
			} else {
				depth--
				limit += 4
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst, indentState{len(src), depth, opened}, true
}

// makeRoom is what the sink's mode does when dst may be short of room:
// a fill has none to give (ok false), a count or a send empties dst,
// and the body's own buffer, of its counted size, holds the rest.
func (s *bodySink) makeRoom(dst []byte) ([]byte, bool) {
	switch s.mode {
	case fill:
		return dst, false
	case count, send:
		s.emit(dst)
		dst = dst[:0]
	}
	return dst, true
}

// spillString puts a string token longer than the room left in dst. One
// longer than an emptied dst leaves straight from the encoder's bytes: a
// long string is never copied into a grown buffer.
func (s *bodySink) spillString(dst, str []byte) ([]byte, bool) {
	dst, ok := s.makeRoom(dst)
	switch {
	case !ok:
		return dst, false
	case len(str) <= cap(dst)-len(dst):
		return append(dst, str...), true
	}
	s.emit(str)
	return dst, true
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := depth * len(indent); n > 0; n -= len(blanks) {
		dst = append(dst, blanks[:min(n, len(blanks))]...)
	}
	return dst
}

// emit counts b or writes it to the response.
func (s *bodySink) emit(b []byte) {
	if s.mode == count {
		s.n += len(b)
	} else if len(b) > 0 {
		_, _ = s.w.Write(b) // a failed write is a client that has left
	}
}

// stringEnd returns the index just past the closing quote of the JSON
// string whose contents start at src[i]: the first quote not escaped by
// an odd run of backslashes.
func stringEnd(src []byte, i int) int {
	for {
		q := bytes.IndexByte(src[i:], '"')
		if q < 0 {
			return len(src)
		}
		q += i
		k := q
		for k > i && src[k-1] == '\\' {
			k--
		}
		if (q-k)%2 == 0 {
			return q + 1
		}
		i = q + 1
	}
}

// Header values shared by every response that sets them. net/http only
// reads a header's value slice, so one slice serves every response.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"HIT"}
	cacheMiss       = []string{"MISS"}
)

// setDecimal sets the canonical header key to the decimal form of n,
// with one allocation for the value's slice and its digits together.
func setDecimal(h http.Header, key string, n int64) {
	v := new(struct {
		vals   [1]string
		digits [20]byte
	})
	d := strconv.AppendInt(v.digits[:0], n, 10)
	v.vals[0] = unsafe.String(&d[0], len(d))
	h[key] = v.vals[:]
}

// startBody sends the status line of a JSON body of size bytes.
func startBody(w http.ResponseWriter, code int, size int) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	setDecimal(h, "Content-Length", int64(size))
	w.WriteHeader(code)
}

// writeBody sends a rendered JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	startBody(w, code, len(body))
	_, _ = w.Write(body) // a failed write is a client that has left
}

// MaxBodyBytes bounds every POST body: 8 MiB covers a 1024-query
// batch and a 4096-op prov read with room to spare.
const MaxBodyBytes = 8 << 20

// decodeBody decodes a POST body into v under the MaxBodyBytes bound —
// the one place request bodies are read.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) *client.APIError {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return Errf(http.StatusRequestEntityTooLarge, client.CodeInvalidRequest,
			"request body exceeds %d bytes", tooLarge.Limit)
	}
	return Errf(http.StatusBadRequest, client.CodeInvalidRequest, "bad request body: %v", err)
}

// writeDoc writes a backend document, unless producing it failed.
func writeDoc(w http.ResponseWriter, doc interface{}, apiErr *client.APIError) *client.APIError {
	if apiErr == nil {
		WriteJSON(w, http.StatusOK, doc)
	}
	return apiErr
}

func versionParam(r *http.Request) (uint64, *client.APIError) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, Errf(http.StatusBadRequest, client.CodeInvalidRequest, "bad version %q", raw)
	}
	return v, nil
}

// ---- conditional GETs --------------------------------------------------

// requestETag is the strong validator of a snapshot-determined GET
// response. Snapshots are immutable and response bodies are a pure
// function of (resolved version, path, parameters), so the ETag never
// needs to see the body — conditional requests are answered before any
// traversal work. The version parameter is replaced by the resolved
// version, so pinned and current spellings of the same snapshot
// validate against the same tag, on a daemon and on a gateway alike.
func requestETag(version uint64, r *http.Request) string {
	q := r.URL.Query()
	q.Del("version")
	// The timeout bounds evaluation wall-clock, never the body: two
	// clients with different timeouts must revalidate each other.
	q.Del("timeout")
	h := fnv.New64a()
	_, _ = io.WriteString(h, r.URL.Path)
	_, _ = io.WriteString(h, "?")
	_, _ = io.WriteString(h, q.Encode()) // Encode sorts keys: canonical
	return fmt.Sprintf(`"%d-%016x"`, version, h.Sum64())
}

// etagMatches compares If-None-Match candidates against the computed
// tag, weakly (RFC 9110 §13.1.2): an intermediary that weakens
// validators sends the tag back as W/"...", and that is still a match.
// The "*" form is deliberately not honored: it matches only when
// a current representation exists (RFC 9110), and pinGET runs before
// node/tuple existence checks — answering 304 for a resource whose
// unconditional GET is a 404 would pin stale caches forever. Declining
// "*" merely costs the full body.
func etagMatches(ifNoneMatch, etag string) bool {
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// pinGET runs a snapshot-determined GET from its ?version parameter to
// the point of evaluation, once the handler's own parameters have
// parsed: version syntax (400), the pin (410), then the conditional-GET
// machinery — the response's ETag is always set, and a matching
// If-None-Match is answered 304 with no body. fresh reports that the
// body is still wanted.
func (s *Server) pinGET(ctx context.Context, w http.ResponseWriter, r *http.Request) (pin Pin, fresh bool, apiErr *client.APIError) {
	version, apiErr := versionParam(r)
	if apiErr == nil {
		pin, apiErr = s.b.Pin(ctx, version)
	}
	if apiErr != nil {
		return Pin{}, false, apiErr
	}
	etag := requestETag(pin.Version, r)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return pin, false, nil
	}
	return pin, true, nil
}

// ---- endpoints ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) *client.APIError {
	doc, apiErr := s.b.HealthzDoc(r.Context(), s.info.Protocol)
	return writeDoc(w, doc, apiErr)
}

// handleVersion reports the server binary's build metadata
// (debug.ReadBuildInfo): module path/version, Go toolchain, and build
// settings.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) *client.APIError {
	return writeDoc(w, buildinfo.Get(), nil)
}

// handleShards is GET /v1/shards: the routing table of the tier.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) *client.APIError {
	pin, fresh, apiErr := s.pinGET(r.Context(), w, r)
	if !fresh {
		return apiErr
	}
	return writeDoc(w, s.b.ShardsDoc(pin), nil)
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) *client.APIError {
	pin, fresh, apiErr := s.pinGET(r.Context(), w, r)
	if !fresh {
		return apiErr
	}
	doc, apiErr := s.b.NodesDoc(r.Context(), pin)
	return writeDoc(w, doc, apiErr)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) *client.APIError {
	// ?t=<virtual time in us> time-travels instead of reading the
	// pinned snapshot's own instant.
	q := r.URL.Query()
	var atTime *int64
	if raw := q.Get("t"); raw != "" {
		us, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return Errf(http.StatusBadRequest, client.CodeInvalidRequest, "bad virtual time %q", raw)
		}
		atTime = &us
	}
	pin, fresh, apiErr := s.pinGET(r.Context(), w, r)
	if !fresh {
		return apiErr
	}
	doc, apiErr := s.b.StateDoc(r.Context(), pin, r.PathValue("node"), q.Get("rel"), atTime)
	return writeDoc(w, doc, apiErr)
}

// handleHistoryFirst answers the deep-history query class: the first
// version where tuple X exists at a node. There is no version pinning
// and no ETag — the answer can extend further back than any retained
// snapshot.
func (s *Server) handleHistoryFirst(w http.ResponseWriter, r *http.Request) *client.APIError {
	lit, t, at, apiErr := tupleParams(r)
	if apiErr != nil {
		return apiErr
	}
	doc, apiErr := s.b.HistoryFirstDoc(r.Context(), lit, t, at)
	return writeDoc(w, doc, apiErr)
}

// tupleParams parses the ?tuple= literal (and optional ?at= node) of a
// GET that names one tuple.
func tupleParams(r *http.Request) (lit string, t rel.Tuple, at string, apiErr *client.APIError) {
	q := r.URL.Query()
	lit = q.Get("tuple")
	if lit == "" {
		return "", rel.Tuple{}, "", Errf(http.StatusBadRequest, client.CodeInvalidRequest, "missing ?tuple= literal")
	}
	t, at, err := ResolveTupleAt(lit, q.Get("at"))
	if err != nil {
		return "", rel.Tuple{}, "", Errf(http.StatusBadRequest, client.CodeInvalidQuery, "%v", err)
	}
	return lit, t, at, nil
}

// QueryRequest is the POST /v1/query body, as the SDK declares it.
type QueryRequest = client.QueryRequest

// setCacheHeaders reports a Server.query outcome on the response.
func setCacheHeaders(w http.ResponseWriter, cache *ResultCache, hit bool) {
	h := w.Header()
	verdict := cacheMiss
	if hit {
		verdict = cacheHit
	}
	h[client.HeaderCache] = verdict
	hits, misses := cache.Counters()
	setDecimal(h, client.HeaderCacheHits, hits)
	setDecimal(h, client.HeaderCacheMisses, misses)
}

// ResolveTupleAt parses a tuple literal and resolves the node to query
// at by provquery.QueryAt's rule.
func ResolveTupleAt(lit, at string) (rel.Tuple, string, error) {
	t, err := provquery.ParseTupleLiteral(lit)
	if err == nil {
		at, err = provquery.QueryAt(t, at)
	}
	return t, at, err
}

// ResolveQueryRequest turns one query request body into walk inputs:
// both request forms reduce to (type, tuple, at, opts) before any
// evaluation, so every malformed query is a 400 and only missing
// provenance is a 404.
func ResolveQueryRequest(req *QueryRequest) (typ provquery.QueryType, t rel.Tuple, at string, opts provquery.Options, apiErr *client.APIError) {
	switch {
	case req.Q != "":
		parsed, err := provquery.ParseQuery(req.Q)
		if err != nil {
			return 0, rel.Tuple{}, "", opts, Errf(http.StatusBadRequest, client.CodeInvalidQuery, "%v", err)
		}
		typ, t, at, opts = parsed.Type, parsed.Tuple, parsed.At, parsed.Opts
	case req.Type != "" && req.Tuple != "":
		var err error
		typ, err = provquery.ParseQueryType(req.Type)
		if err != nil {
			return 0, rel.Tuple{}, "", opts, Errf(http.StatusBadRequest, client.CodeInvalidQuery, "%v", err)
		}
		t, at, err = ResolveTupleAt(req.Tuple, req.At)
		if err != nil {
			return 0, rel.Tuple{}, "", opts, Errf(http.StatusBadRequest, client.CodeInvalidQuery, "%v", err)
		}
		if o := req.Options; o != nil {
			opts = provquery.Options{Threshold: o.Threshold, Sequential: o.Sequential, MaxDepth: o.MaxDepth, MaxNodes: o.MaxNodes}
		}
	default:
		return 0, rel.Tuple{}, "", opts,
			Errf(http.StatusBadRequest, client.CodeInvalidRequest, `need "q" or "type"+"tuple"`)
	}
	if apiErr := validateOptions(opts); apiErr != nil {
		return 0, rel.Tuple{}, "", opts, apiErr
	}
	return typ, t, at, opts, nil
}

// QueryError maps a traversal failure to its stable API error: the
// one mapping shared by every query-evaluating endpoint on both tiers,
// so the same defect never earns different codes on different routes.
// An error that already is a *client.APIError (a gateway's failed shard
// read) passes through.
func QueryError(err error) *client.APIError {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae
	}
	if ce, ok := CtxError(err); ok {
		return ce
	}
	if errors.Is(err, provquery.ErrUnknownNode) {
		return Errf(http.StatusNotFound, client.CodeUnknownNode, "%v", err)
	}
	if errors.Is(err, provquery.ErrNotOwned) {
		return Errf(http.StatusMisdirectedRequest, client.CodeWrongShard,
			"%v (query a gateway, or the owning shard)", err)
	}
	if errors.Is(err, provquery.ErrNoProvenance) {
		return Errf(http.StatusNotFound, client.CodeNoProvenance, "%v", err)
	}
	return Errf(http.StatusInternalServerError, client.CodeInternal, "%v", err)
}

// RenderQueryResponse renders a finished traversal as the /v1/query
// response document — the one renderer of both tiers, which is what
// makes federated answers byte-identical to single-process ones. The
// body holds only version-determined fields: two requests pinned to one
// version get the same bytes whether cached or walked afresh, and cache
// observability travels in the X-Cache* headers instead.
func RenderQueryResponse(version uint64, timeUs int64, res *provquery.Result) *client.QueryResult {
	out := &client.QueryResult{
		Version:   version,
		TimeUs:    timeUs,
		Type:      res.Type.String(),
		Pruned:    res.Pruned,
		Truncated: res.Truncated,
		Stats:     client.Stats{Messages: res.Stats.Messages, Bytes: res.Stats.Bytes},
	}
	switch res.Type {
	case provquery.Lineage:
		pj := JSONProof(res.Root)
		out.Proof = &pj
		out.Text = viz.ProofTree(res.Root, 0)
	case provquery.BaseTuples:
		out.Bases = []client.Tuple{}
		for _, b := range res.Bases {
			out.Bases = append(out.Bases, JSONTuple(b.Tuple))
		}
	case provquery.Nodes:
		out.Nodes = res.Nodes
	case provquery.DerivCount:
		out.Count = &res.Count
	}
	return out
}

// key is the result-cache key of one resolved query at pin, with the
// server's traversal caps applied to its options. UseCache is dropped:
// it selects the live per-node caches, which no backend walks, so a
// query and its "with cache" twin share one entry.
func (s *Server) key(pin Pin, typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) CacheKey {
	opts = s.info.ClampOptions(opts)
	opts.UseCache = false
	return CacheKey{Version: pin.Version, At: at, VID: t.VID(), Type: typ, Opts: opts}
}

// query answers key (whose VID is t's) at pin through the process's
// result cache, walking the backend on a miss.
func (s *Server) query(ctx context.Context, pin Pin, key CacheKey, t rel.Tuple) (Cached, bool, *client.APIError) {
	e, hit, err := s.b.ResultCache().answer(key, func() (*provquery.Result, error) {
		return s.b.Walk(ctx, pin, key, t)
	})
	if err != nil {
		return Cached{}, false, QueryError(err)
	}
	return e, hit, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) *client.APIError {
	var req QueryRequest
	if apiErr := decodeBody(w, r, &req); apiErr != nil {
		return apiErr
	}
	typ, t, at, opts, apiErr := ResolveQueryRequest(&req)
	if apiErr != nil {
		return apiErr
	}
	ctx, cancel, apiErr := RequestContext(r, s.info.Timeout)
	if apiErr != nil {
		return apiErr
	}
	defer cancel()
	pin, apiErr := s.b.Pin(ctx, req.Version)
	if apiErr != nil {
		return apiErr
	}
	key := s.key(pin, typ, at, t, opts)
	e, hit, apiErr := s.query(ctx, pin, key, t)
	if apiErr != nil {
		return apiErr
	}
	cache := s.b.ResultCache()
	setCacheHeaders(w, cache, hit)
	if e.Body != nil {
		writeBody(w, http.StatusOK, e.Body)
		return nil
	}
	// A key asked again at the same version is what will be asked a
	// third time: its first hit leaves the bytes behind.
	var keep func([]byte)
	if hit {
		keep = func(body []byte) { cache.AdmitBody(key, body) }
	}
	writeJSON(w, http.StatusOK, RenderQueryResponse(pin.Version, int64(pin.Time), e.Result), keep)
	return nil
}

// ---- POST /v1/query/batch ----------------------------------------------

// MaxBatchQueries bounds one batch request.
const MaxBatchQueries = 1024

// batchShapeError rejects a batch the loop must not start on.
func batchShapeError(req *client.BatchRequest) *client.APIError {
	if len(req.Queries) == 0 {
		return Errf(http.StatusBadRequest, client.CodeInvalidRequest, "empty batch: need at least one query")
	}
	if len(req.Queries) > MaxBatchQueries {
		return Errf(http.StatusBadRequest, client.CodeInvalidRequest,
			"batch of %d queries exceeds the maximum %d", len(req.Queries), MaxBatchQueries)
	}
	for i := range req.Queries {
		if req.Queries[i].Version != 0 {
			return Errf(http.StatusBadRequest, client.CodeInvalidRequest,
				"queries[%d] sets version; the batch-level version pins the snapshot for every query", i)
		}
	}
	return nil
}

// handleQueryBatch evaluates many queries against one pinned snapshot.
// All queries share the process's result cache, so repeated or
// overlapping queries inside one batch are answered without
// re-traversal — and the whole batch costs one HTTP round trip. A
// result is the exact document the equivalent single POST /v1/query
// answers (identical JSON modulo indentation depth) or an error
// envelope.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) *client.APIError {
	var req client.BatchRequest
	if apiErr := decodeBody(w, r, &req); apiErr != nil {
		return apiErr
	}
	if apiErr := batchShapeError(&req); apiErr != nil {
		return apiErr
	}
	ctx, cancel, apiErr := RequestContext(r, s.info.Timeout)
	if apiErr != nil {
		return apiErr
	}
	defer cancel()
	pin, apiErr := s.b.Pin(ctx, req.Version)
	if apiErr != nil {
		return apiErr
	}

	results := make([]json.RawMessage, 0, len(req.Queries))
	hits := 0
	// local is the batch's own result overlay. The result cache is
	// bounded (it declines new keys once full), so the batch's
	// documented guarantee — repeated queries inside one batch never
	// re-traverse — must not depend on it having room.
	local := map[CacheKey]json.RawMessage{}
	for i := range req.Queries {
		// A dead client or an expired deadline aborts the whole batch
		// with a structured error — never a partial results array.
		if err := ctx.Err(); err != nil {
			ce, _ := CtxError(err)
			return ce
		}
		typ, t, at, opts, itemErr := ResolveQueryRequest(&req.Queries[i])
		if itemErr == nil {
			key := s.key(pin, typ, at, t, opts)
			if cached, ok := local[key]; ok {
				hits++
				results = append(results, cached)
				continue
			}
			e, hit, evalErr := s.query(ctx, pin, key, t)
			if evalErr == nil {
				if hit {
					hits++
				}
				// A stored body stands in for the marshalled document: the
				// response's encoder compacts and re-indents either to the
				// same bytes.
				b := json.RawMessage(e.Body)
				if b == nil {
					var err error
					if b, err = json.Marshal(RenderQueryResponse(pin.Version, int64(pin.Time), e.Result)); err != nil {
						return Errf(http.StatusInternalServerError, client.CodeInternal, "encode: %v", err)
					}
				}
				local[key] = b
				results = append(results, b)
				continue
			}
			if evalErr.Code == client.CodeQueryCancelled || evalErr.Code == client.CodeQueryTimeout {
				return evalErr
			}
			itemErr = evalErr
		}
		results = append(results, MarshalError(itemErr))
	}

	hitsTotal, missesTotal := s.b.ResultCache().Counters()
	h := w.Header()
	setDecimal(h, client.HeaderBatchCacheHits, int64(hits))
	setDecimal(h, client.HeaderCacheHits, hitsTotal)
	setDecimal(h, client.HeaderCacheMisses, missesTotal)
	WriteJSON(w, http.StatusOK, client.BatchResponse{
		Version: pin.Version,
		TimeUs:  int64(pin.Time),
		Results: results,
	})
	return nil
}

// handleProofDOT renders the lineage of ?tuple= (optionally ?at=,
// ?version=) as a Graphviz DOT document, sharing the result cache with
// /v1/query.
func (s *Server) handleProofDOT(w http.ResponseWriter, r *http.Request) *client.APIError {
	_, t, at, apiErr := tupleParams(r)
	if apiErr != nil {
		return apiErr
	}
	ctx, cancel, apiErr := RequestContext(r, s.info.Timeout)
	if apiErr != nil {
		return apiErr
	}
	defer cancel()
	pin, fresh, apiErr := s.pinGET(ctx, w, r)
	if !fresh {
		return apiErr
	}
	e, hit, apiErr := s.query(ctx, pin, s.key(pin, provquery.Lineage, at, t, provquery.Options{}), t)
	if apiErr != nil {
		return apiErr
	}
	setCacheHeaders(w, s.b.ResultCache(), hit)
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	w.Header().Set(client.HeaderSnapshotVersion, strconv.FormatUint(pin.Version, 10))
	fmt.Fprint(w, viz.ProofDOT(e.Result.Root))
	return nil
}
