package server

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/provquery"
	"repro/internal/rel"
)

// CacheKey identifies one whole query result: pinned version × starting
// node × VID × query type × the full (clamped) option set. Every field
// of provquery.Options changes the answer (threshold and limits change
// the result, traversal order changes the modeled latency-relevant
// shape), so the whole struct is part of the key; the starting node is
// included because the walk's entry point determines the proof.
type CacheKey struct {
	Version uint64
	At      string
	VID     rel.ID
	Type    provquery.QueryType
	Opts    provquery.Options
}

// Cached is one result-cache entry: a finished walk and, once the key
// has been asked again, the /v1/query body it renders to. Both are
// shared with every other caller and MUST be treated as read-only.
type Cached struct {
	Result *provquery.Result
	// Body is WriteJSON(RenderQueryResponse(...)) of Result at the key's
	// version, byte for byte; nil until a hit admitted it (AdmitBody).
	Body []byte
}

// ResultCache memoizes whole query results: the one result cache of a
// serving process. A Publisher keeps one for every version it serves,
// ring and disk cache alike, and a Gateway one for every version it has
// pinned. Results are immutable per version, so entries never need
// invalidation; they are grouped by version, and the owner drops a
// version's group where it stops retaining the version.
//
// Because option values are request-controlled, distinct keys are
// unbounded from the client's point of view; maxQueryCacheEntries caps
// the memoized results so a client cycling option values (or a
// never-churning daemon whose version never ages out) cannot grow
// server memory without bound. A full cache first drops the versions
// older than the incoming key, then declines new keys, which simply
// evaluate uncached.
//
// A rendered body is a pure function of its key, and rendering it is
// most of what a hit costs, so a key that is asked again keeps its body
// too. Bodies are admitted on the first hit, not on the miss — nothing
// is evicted inside a version, so a key asked once must not spend the
// budget — and are charged by length against maxBodyBytes.
type ResultCache struct {
	mu       sync.RWMutex
	versions map[uint64]versionEntries
	entries  int   // across every version
	bodies   int64 // body bytes held, across every version

	hits   atomic.Int64
	misses atomic.Int64
}

// versionEntries is one version's group of entries and the body bytes
// they hold. The zero value is an empty group, so a lookup needs no
// presence check.
type versionEntries struct {
	m      map[CacheKey]Cached
	bodies int64
}

// maxQueryCacheEntries bounds the memoized results of one process.
const maxQueryCacheEntries = 4096

// maxBodyBytes bounds the rendered bodies one process retains. Past it
// a hit renders from the Result.
const maxBodyBytes = 64 << 20

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{versions: map[uint64]versionEntries{}}
}

// Get returns the entry memoized for key, counting a hit when there is
// one.
func (c *ResultCache) Get(key CacheKey) (Cached, bool) {
	c.mu.RLock()
	e, ok := c.versions[key.Version].m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return e, ok
}

// Put records a completed walk: it counts the miss and memoizes the
// result while the cache has room. Of two racing misses the first is
// kept (identical immutable state gives identical results). Failed or
// aborted walks are never put, so they are neither cached nor counted.
// A version already dropped is stored like any other: it counts toward
// the cap and leaves with the next drop of older versions.
func (c *ResultCache) Put(key CacheKey, r *provquery.Result) {
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.versions[key.Version]
	if _, ok := g.m[key]; ok {
		return
	}
	if c.entries >= maxQueryCacheEntries {
		for v := range c.versions {
			if v < key.Version {
				c.drop(v)
			}
		}
		if c.entries >= maxQueryCacheEntries {
			return // full: serve this key uncached rather than grow
		}
	}
	if g.m == nil {
		g.m = map[CacheKey]Cached{}
		c.versions[key.Version] = g
	}
	g.m[key] = Cached{Result: r}
	c.entries++
}

// AdmitBody keeps body, the rendered response of key's cached result,
// while maxBodyBytes has room. It takes ownership of body, which is
// shared read-only from then on: the caller must not write it again. It
// is called on a hit that found no body; of racing callers one is
// charged.
func (c *ResultCache) AdmitBody(key CacheKey, body []byte) {
	n := int64(len(body))
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.versions[key.Version]
	e, ok := g.m[key]
	if !ok || e.Body != nil || c.bodies+n > maxBodyBytes {
		return
	}
	e.Body = body
	g.m[key] = e
	g.bodies += n
	c.versions[key.Version] = g
	c.bodies += n
}

// Drop removes every entry of version and gives back its body bytes:
// the owner no longer retains the version (a request still pinned to
// it walks afresh). O(1), so mint can afford it.
func (c *ResultCache) Drop(version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop(version)
}

func (c *ResultCache) drop(version uint64) {
	g := c.versions[version]
	c.entries -= len(g.m)
	c.bodies -= g.bodies
	delete(c.versions, version)
}

// BodyBytes returns how many bytes of rendered bodies the cache holds.
// Safe for concurrent use.
func (c *ResultCache) BodyBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bodies
}

// Held returns how many entries, and how many body bytes, the cache
// holds for version. Safe for concurrent use.
func (c *ResultCache) Held(version uint64) (entries int, bodyBytes int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g := c.versions[version]
	return len(g.m), g.bodies
}

// Counters returns the cumulative hit and miss (completed walk) counts.
// Safe for concurrent use.
func (c *ResultCache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// answer is the serving tier's one get → walk → put: the entry the
// cache holds for key, or walk's result, which it records. hit reports
// a cache-served answer; the entry is shared and read-only. A failed
// walk is neither cached nor counted: failures are cheap to recompute.
func (c *ResultCache) answer(key CacheKey, walk func() (*provquery.Result, error)) (e Cached, hit bool, err error) {
	if e, ok := c.Get(key); ok {
		return e, true, nil
	}
	r, err := walk()
	if err != nil {
		return Cached{}, false, err
	}
	c.Put(key, r)
	return Cached{Result: r}, false, nil
}

// CachedQuery evaluates a provenance query against this snapshot,
// serving repeated identical queries from the publisher's result cache
// instead of re-traversing. Safe for concurrent use; two racing misses
// both traverse (identical immutable state gives identical results)
// and the cache keeps one of them.
//
// The returned Result is shared with every other caller for the same
// key and MUST be treated as read-only. hit reports whether this call
// was served from the cache. Errors (unknown tuples/nodes) are never
// cached; they are cheap to recompute.
func (s *Snapshot) CachedQuery(typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (res *provquery.Result, hit bool, err error) {
	key := CacheKey{Version: s.Version, At: at, VID: t.VID(), Type: typ, Opts: opts}
	e, hit, err := s.cache.answer(key, func() (*provquery.Result, error) {
		//lint:allow ctxflow context-free compatibility entry point: callers who opt out of cancellation get a walk that runs to completion by design
		return s.query.QueryContext(context.Background(), typ, at, t, opts)
	})
	return e.Result, hit, err
}

// CacheCounters returns the cumulative hit and miss counts of the
// publisher's result cache, which serves every version. Safe for
// concurrent use.
func (s *Snapshot) CacheCounters() (hits, misses int64) { return s.cache.Counters() }
