package server

import (
	"context"
	"errors"
	"net/http"

	"repro/client"
	"repro/internal/provquery"
	"repro/internal/provstore"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// Backend is what the /v1 handler set (http.go) needs from a serving
// tier. It has exactly two implementations: the Publisher, which
// answers from its snapshot ring and store, and gateway.Gateway, which
// answers by fanning out over the shards of a deployment. Everything
// that is HTTP — routing, decoding, validation and its order, caps,
// conditional GETs, the batch loop, the result cache's get → walk →
// put, rendering, cache headers — lives above this interface, once.
type Backend interface {
	// Pin resolves a request's version (0 means current) to the
	// coordinates the whole response is computed at; a version no longer
	// retained is the snapshot_evicted 410.
	Pin(ctx context.Context, version uint64) (Pin, *client.APIError)
	// Walk evaluates one resolved query at pin; key.VID is t's. An error
	// is a *client.APIError or a walk failure QueryError maps.
	Walk(ctx context.Context, pin Pin, key CacheKey, t rel.Tuple) (*provquery.Result, error)
	// ResultCache is the process's one result cache, for every pin.
	ResultCache() *ResultCache

	// NodesDoc is the GET /v1/nodes document at pin.
	NodesDoc(ctx context.Context, pin Pin) (*client.Nodes, *client.APIError)
	// StateDoc is the GET /v1/state/{node} document at pin: one relation
	// when relFilter is set, and — when atTime is non-nil — the node's
	// state at the latest version <= pin published at or before *atTime
	// (virtual µs) instead of at the pin itself.
	StateDoc(ctx context.Context, pin Pin, node, relFilter string, atTime *int64) (*client.State, *client.APIError)
	// HistoryFirstDoc is the GET /v1/history/first document for the tuple t
	// (parsed from lit) at node at. Deep history is not pinned.
	HistoryFirstDoc(ctx context.Context, lit string, t rel.Tuple, at string) (*client.HistoryFirst, *client.APIError)
	// HealthzDoc is the GET /v1/healthz document.
	HealthzDoc(ctx context.Context, protocol string) (interface{}, *client.APIError)
	// ShardsDoc is the GET /v1/shards document at pin.
	ShardsDoc(pin Pin) interface{}
}

// Pin is one resolved snapshot coordinate: the version every part of a
// response is computed at, and that version's virtual instant.
type Pin struct {
	Version uint64
	Time    simnet.Time

	// snap is the Publisher's resolved snapshot, held so a request keeps
	// answering from it even if the ring evicts the version mid-request.
	snap *Snapshot
}

// ---- the Publisher as a Backend -----------------------------------------

// Pin implements Backend over the retention ring, falling back to the
// snapshot store. Only a version that is not retained is evicted; one
// the store holds but cannot read is the server's fault.
func (p *Publisher) Pin(_ context.Context, version uint64) (Pin, *client.APIError) {
	snap, err := p.resolve(version)
	if errors.Is(err, provstore.ErrNotRetained) {
		oldest, newest := p.Versions()
		return Pin{}, Errf(http.StatusGone, client.CodeSnapshotEvicted,
			"version %d not retained (oldest %d, newest %d)", version, oldest, newest)
	}
	if err != nil {
		return Pin{}, unreadable(version)
	}
	return Pin{Version: snap.Version, Time: snap.Time, snap: snap}, nil
}

// unreadable is the 500 for a version the snapshot store holds but
// fails to read back (CRC or decode failure, store closed). The message
// names the version only: the cause carries file names and offsets that
// belong in nettrailsfsck's output, not in an API response.
func unreadable(version uint64) *client.APIError {
	return Errf(http.StatusInternalServerError, client.CodeInternal,
		"version %d is unreadable from the snapshot store (check the data directory with nettrailsfsck)", version)
}

// Walk implements Backend over the pinned snapshot.
func (p *Publisher) Walk(ctx context.Context, pin Pin, key CacheKey, t rel.Tuple) (*provquery.Result, error) {
	return pin.snap.query.QueryContext(ctx, key.Type, key.At, t, key.Opts)
}

// ResultCache implements Backend.
func (p *Publisher) ResultCache() *ResultCache { return p.cache }

// NodesDoc implements Backend.
func (p *Publisher) NodesDoc(_ context.Context, pin Pin) (*client.Nodes, *client.APIError) {
	snap := pin.snap
	// Nodes is always a JSON array, never null.
	out := &client.Nodes{Version: snap.Version, TimeUs: int64(snap.Time), Nodes: []client.Node{}}
	for _, addr := range snap.Nodes {
		info, _ := snap.NodeInfo(addr)
		out.Nodes = append(out.Nodes, client.Node{
			Addr:        addr,
			Neighbors:   info.Neighbors,
			Tuples:      info.Tuples,
			ProvEntries: info.Prov.ProvEntries,
			ExecEntries: info.Prov.ExecEntries,
			SentMsgs:    info.SentMsgs,
			SentBytes:   info.SentBytes,
		})
	}
	return out, nil
}

// unowned is the error for a node this snapshot holds no partition of:
// wrong_shard when another shard owns it, unknown_node otherwise.
func (s *Snapshot) unowned(addr string) *client.APIError {
	if apiErr := s.misdirected(addr); apiErr != nil {
		return apiErr
	}
	return Errf(http.StatusNotFound, client.CodeUnknownNode, "unknown node %q", addr)
}

// StateDoc implements Backend. A non-nil atTime time-travels by version:
// the node is read from the snapshot atTime resolves to, the document
// keeps the pin's version and reports when that state was published.
func (p *Publisher) StateDoc(_ context.Context, pin Pin, node, relFilter string, atTime *int64) (*client.State, *client.APIError) {
	snap := pin.snap
	st := snap.stateOf(node)
	if st == nil {
		return nil, snap.unowned(node)
	}
	out := &client.State{Version: snap.Version, TimeUs: int64(snap.Time), Node: node}
	if atTime != nil {
		then, err := p.atTime(snap.Version, simnet.Time(*atTime))
		if errors.Is(err, provstore.ErrNotRetained) {
			return nil, Errf(http.StatusNotFound, client.CodeUnknownNode,
				"no retained version at or before t=%dus to read %q from", *atTime, node)
		}
		if err != nil {
			return nil, unreadable(snap.Version)
		}
		st = then.stateOf(node)
		out.TimeUs = int64(st.stateTime)
	}
	out.Tables = map[string][]client.Tuple{}
	for name, ts := range st.tables {
		if relFilter != "" && name != relFilter {
			continue
		}
		rows := make([]client.Tuple, 0, ts.Len())
		ts.Scan(func(t rel.Tuple) bool {
			rows = append(rows, JSONTuple(t))
			return true
		})
		out.Tables[name] = rows
	}
	return out, nil
}

// HistoryFirstDoc implements Backend from the snapshot store's per-segment
// first-seen indexes, not from any retained snapshot, so the answer can
// extend further back than the in-memory ring.
func (p *Publisher) HistoryFirstDoc(_ context.Context, _ string, t rel.Tuple, at string) (*client.HistoryFirst, *client.APIError) {
	if snap := p.Current(); snap.stateOf(at) == nil {
		return nil, snap.unowned(at)
	}
	st := p.Store()
	if st == nil {
		return nil, Errf(http.StatusNotImplemented, client.CodeNoHistory,
			"no snapshot store attached; first-version queries need the daemon started with -data")
	}
	v, ok := st.FirstVersion(at, t.VID())
	if !ok {
		return nil, Errf(http.StatusNotFound, client.CodeNoHistory,
			"tuple %s was never seen at %q in the retained history", t, at)
	}
	out := &client.HistoryFirst{
		Tuple:        JSONTuple(t),
		Node:         at,
		FirstVersion: v,
		Oldest:       st.OldestVersion(),
	}
	// Best-effort: the version can age out between the index probe and
	// the time lookup; the answer itself is still valid.
	if tm, err := st.VersionTime(v); err == nil {
		out.TimeUs = tm
	}
	return out, nil
}

// HealthzDoc implements Backend.
func (p *Publisher) HealthzDoc(_ context.Context, protocol string) (interface{}, *client.APIError) {
	snap := p.Current()
	oldest, _ := p.Versions()
	out := client.Health{
		OK:       true,
		Protocol: protocol,
		Version:  snap.Version,
		TimeUs:   int64(snap.Time),
		Nodes:    len(snap.Nodes),
		Oldest:   oldest,
	}
	if !snap.Shard.Unsharded() {
		out.Shard = &client.ShardInfo{Index: snap.Shard.Index, Total: snap.Shard.Total}
	}
	if st := p.Store(); st != nil {
		out.Store = &client.StoreHealth{Oldest: st.OldestVersion(), Durable: st.DurableVersion()}
	}
	if err := p.failed.Load(); err != nil {
		out.OK, out.Reason = false, "publishing stopped: "+(*err).Error()
	}
	return out, nil
}

// ShardsDoc implements Backend: the routing-table face of a shard (or of
// an unsharded daemon, which reports itself as shard 0 of 1).
func (p *Publisher) ShardsDoc(pin Pin) interface{} {
	snap := pin.snap
	shard := client.ShardInfo{Index: snap.Shard.Index, Total: snap.Shard.Total}
	if snap.Shard.Unsharded() {
		shard = client.ShardInfo{Index: 0, Total: 1}
	}
	return client.Shards{
		Version:  snap.Version,
		TimeUs:   int64(snap.Time),
		Shard:    shard,
		Nodes:    snap.Nodes,
		AllNodes: snap.AllNodes,
	}
}
