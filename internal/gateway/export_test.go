package gateway

// CachedTimes counts the version -> virtual time entries the gateway
// currently remembers.
func (g *Gateway) CachedTimes() int {
	g.timesMu.Lock()
	defer g.timesMu.Unlock()
	return len(g.times)
}

// CachedBodyBytes is how many bytes of rendered bodies the gateway's
// result cache retains.
func (g *Gateway) CachedBodyBytes() int64 { return g.cache.BodyBytes() }

// CachedVersion is how many entries, and how many body bytes, the
// gateway's result cache holds for one version.
func (g *Gateway) CachedVersion(v uint64) (entries int, bodyBytes int64) { return g.cache.Held(v) }
