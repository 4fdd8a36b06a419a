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

// ResultCache memoizes whole query results. It is the one result cache
// of the serving tier, with two owners: every Snapshot has its own (it
// lives and dies with its version, so eviction is the retention ring
// dropping old snapshots), and a Gateway has one across the versions it
// has pinned. Results are immutable per version, so entries never need
// invalidation.
//
// Because option values are request-controlled, distinct keys are
// unbounded from the client's point of view; maxQueryCacheEntries caps
// the memoized results so a client cycling option values (or a
// never-churning daemon whose snapshot never ages out) cannot grow
// server memory without bound. A full cache first drops the entries of
// versions older than the incoming key, then declines new keys, which
// simply evaluate uncached.
type ResultCache struct {
	mu sync.RWMutex
	m  map[CacheKey]*provquery.Result
	// floor is a version no entry is older than: a full cache whose
	// incoming key is not newer has nothing to drop and skips the scan.
	floor uint64

	hits   atomic.Int64
	misses atomic.Int64
}

// maxQueryCacheEntries bounds one cache's memoized results.
const maxQueryCacheEntries = 4096

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{m: map[CacheKey]*provquery.Result{}}
}

// Get returns the memoized result for key, counting a hit when there is
// one. The result is shared with every other caller and MUST be treated
// as read-only.
func (c *ResultCache) Get(key CacheKey) (*provquery.Result, bool) {
	c.mu.RLock()
	r, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	}
	return r, ok
}

// Put records a completed walk: it counts the miss and memoizes the
// result while the cache has room. Failed or aborted walks are never
// put, so they are neither cached nor counted.
func (c *ResultCache) Put(key CacheKey, r *provquery.Result) {
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= maxQueryCacheEntries {
		if key.Version > c.floor {
			for k := range c.m {
				if k.Version < key.Version {
					delete(c.m, k)
				}
			}
			c.floor = key.Version
		}
		if len(c.m) >= maxQueryCacheEntries {
			if _, ok := c.m[key]; !ok {
				return // full: serve this key uncached rather than grow
			}
		}
	}
	c.m[key] = r
}

// Counters returns the cumulative hit and miss (completed walk) counts.
// Safe for concurrent use.
func (c *ResultCache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// CachedQuery evaluates a provenance query against this snapshot,
// serving repeated identical queries from the snapshot's result cache
// instead of re-traversing. Safe for concurrent use; two racing misses
// both traverse (identical immutable state gives identical results)
// and the cache keeps one of them.
//
// The returned Result's proof structures are shared with every other
// caller for the same key and MUST be treated as read-only. hit reports
// whether this call was served from the cache, and the result's
// Stats.SubProofHits/SubProofMisses carry the cache's cumulative
// counters at serve time. Errors (unknown tuples/nodes) are never
// cached; they are cheap to recompute.
func (s *Snapshot) CachedQuery(typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (res *provquery.Result, hit bool, err error) {
	//lint:allow ctxflow context-free compatibility entry point: callers who opt out of cancellation get a walk that runs to completion by design
	return s.CachedQueryContext(context.Background(), typ, at, t, opts)
}

// CachedQueryContext is CachedQuery with cancellation: a cancelled or
// expired ctx aborts a cache-missed traversal mid-walk (the partial
// result is discarded, never cached, and not counted as a miss) and
// returns an error wrapping ctx.Err(). A cache hit is served even
// under an expired context — it costs nothing.
func (s *Snapshot) CachedQueryContext(ctx context.Context, typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (res *provquery.Result, hit bool, err error) {
	key := CacheKey{Version: s.Version, At: at, VID: t.VID(), Type: typ, Opts: opts}
	cached, hit, err := s.cachedQuery(ctx, key, t)
	if err != nil {
		return nil, false, err
	}
	// Hand back a shallow copy so the hit/miss counters can be stamped
	// into Stats without mutating the shared cached value.
	out := *cached
	hits, misses := s.cache.Counters()
	out.Stats.SubProofHits, out.Stats.SubProofMisses = int(hits), int(misses)
	return &out, hit, nil
}

// cachedQuery answers key (whose VID is t's) through the snapshot's
// result cache, walking on a miss. The result is the shared cached
// value.
func (s *Snapshot) cachedQuery(ctx context.Context, key CacheKey, t rel.Tuple) (*provquery.Result, bool, error) {
	if r, ok := s.cache.Get(key); ok {
		return r, true, nil
	}
	r, err := s.query.QueryContext(ctx, key.Type, key.At, t, key.Opts)
	if err != nil {
		return nil, false, err
	}
	s.cache.Put(key, r)
	return r, false, nil
}

// CacheCounters returns the snapshot's cumulative result-cache hit and
// miss counts. Safe for concurrent use.
func (s *Snapshot) CacheCounters() (hits, misses int64) { return s.cache.Counters() }
