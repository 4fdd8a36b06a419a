package server

import (
	"bytes"
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
//
// A rendered body is a pure function of its key, and rendering it is
// most of what a hit costs, so a key that is asked again keeps its body
// too. Bodies are admitted on the first hit, not on the miss — nothing
// is evicted inside a version, so a key asked once must not spend the
// budget — and are charged by length against the owner's bodyBudget.
type ResultCache struct {
	mu sync.RWMutex
	m  map[CacheKey]Cached
	// floor is a version no entry is older than: a full cache whose
	// incoming key is not newer has nothing to drop and skips the scan.
	floor uint64

	// budget is the owner's; charged is this cache's share of it, given
	// back when entries are dropped or the cache is released.
	budget   *bodyBudget
	charged  int64
	released bool

	hits   atomic.Int64
	misses atomic.Int64
}

// maxQueryCacheEntries bounds one cache's memoized results.
const maxQueryCacheEntries = 4096

// maxBodyBytes bounds the rendered bodies one owner — a Publisher
// across its ring and disk-cache snapshots, or a Gateway — retains.
// Past it a hit renders from the Result.
const maxBodyBytes = 64 << 20

// bodyBudget counts the body bytes one owner's caches retain.
type bodyBudget struct{ used atomic.Int64 }

// take charges n bytes, or reports that they do not fit.
func (b *bodyBudget) take(n int64) bool {
	for {
		u := b.used.Load()
		if u+n > maxBodyBytes {
			return false
		}
		if b.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// NewResultCache returns an empty cache that owns its body budget.
func NewResultCache() *ResultCache { return newResultCache(new(bodyBudget)) }

// newResultCache returns an empty cache charging bodies to budget.
func newResultCache(budget *bodyBudget) *ResultCache {
	return &ResultCache{m: map[CacheKey]Cached{}, budget: budget}
}

// Get returns the entry memoized for key, counting a hit when there is
// one.
func (c *ResultCache) Get(key CacheKey) (Cached, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
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
func (c *ResultCache) Put(key CacheKey, r *provquery.Result) {
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	if len(c.m) >= maxQueryCacheEntries {
		if key.Version > c.floor {
			var freed int64
			for k, e := range c.m {
				if k.Version < key.Version {
					freed += int64(len(e.Body))
					delete(c.m, k)
				}
			}
			c.floor = key.Version
			c.charged -= freed
			c.budget.used.Add(-freed)
		}
		if len(c.m) >= maxQueryCacheEntries {
			return // full: serve this key uncached rather than grow
		}
	}
	c.m[key] = Cached{Result: r}
}

// AdmitBody keeps a copy of body, the rendered response of key's cached
// result, while the owner's budget has room. It is called on a hit that
// found no body; of racing callers one is charged.
func (c *ResultCache) AdmitBody(key CacheKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || e.Body != nil || c.released || !c.budget.take(int64(len(body))) {
		return
	}
	e.Body = bytes.Clone(body)
	c.m[key] = e
	c.charged += int64(len(body))
}

// BodyBytes returns how many bytes of rendered bodies the cache holds
// against its owner's budget. Safe for concurrent use.
func (c *ResultCache) BodyBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.charged
}

// release gives the cache's charge back to the budget: its snapshot has
// left the ring (or the disk cache), and what in-flight requests still
// pinned to it read dies with them. O(1), so mint can afford it.
func (c *ResultCache) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget.used.Add(-c.charged)
	c.charged, c.released = 0, true
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
// The returned Result is shared with every other caller for the same
// key and MUST be treated as read-only. hit reports whether this call
// was served from the cache. Errors (unknown tuples/nodes) are never
// cached; they are cheap to recompute.
func (s *Snapshot) CachedQuery(typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (res *provquery.Result, hit bool, err error) {
	key := CacheKey{Version: s.Version, At: at, VID: t.VID(), Type: typ, Opts: opts}
	//lint:allow ctxflow context-free compatibility entry point: callers who opt out of cancellation get a walk that runs to completion by design
	cached, hit, err := s.cachedQuery(context.Background(), key, t)
	if err != nil {
		return nil, false, err
	}
	return cached.Result, hit, nil
}

// cachedQuery answers key (whose VID is t's) through the snapshot's
// result cache, walking on a miss. The entry is the shared cached
// value.
func (s *Snapshot) cachedQuery(ctx context.Context, key CacheKey, t rel.Tuple) (Cached, bool, error) {
	if e, ok := s.cache.Get(key); ok {
		return e, true, nil
	}
	r, err := s.query.QueryContext(ctx, key.Type, key.At, t, key.Opts)
	if err != nil {
		return Cached{}, false, err
	}
	s.cache.Put(key, r)
	return Cached{Result: r}, false, nil
}

// CacheCounters returns the snapshot's cumulative result-cache hit and
// miss counts. Safe for concurrent use.
func (s *Snapshot) CacheCounters() (hits, misses int64) { return s.cache.Counters() }
