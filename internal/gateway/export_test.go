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
