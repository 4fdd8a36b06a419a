package gateway

// CachedTimes counts the version -> virtual time entries the gateway
// currently remembers.
func (g *Gateway) CachedTimes() int {
	g.timesMu.Lock()
	defer g.timesMu.Unlock()
	return len(g.times)
}
