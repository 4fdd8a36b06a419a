package server

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/provstore"
	"repro/internal/simnet"
)

// PublisherOptions configures a publisher beyond the retention ring:
// its place in a sharded deployment and, optionally, a log-structured
// on-disk snapshot store every published version is teed into.
type PublisherOptions struct {
	// Retain bounds how many recent versions stay pinnable in memory
	// (values < 1 mean DefaultRetain).
	Retain int
	// Shard places the publisher in a sharded deployment (the zero
	// value means unsharded): it freezes and retains only the
	// partitions of the nodes the spec owns (round-robin over the
	// sorted node list), so snapshot memory and caches scale with the
	// shard, not the network. Version numbering stays global: a
	// snapshot is published whenever any node's state changed, owned
	// or not, so every shard of the same deterministic run mints the
	// same dense version sequence and a gateway can pin one version
	// across all of them. A query whose walk leaves the owned
	// partitions fails with a wrong-shard error.
	Shard ShardSpec
	// Store, when non-nil, persists every published version. Reads of
	// versions that aged out of the in-memory ring fall back to it, so
	// pinned clients never see snapshot_evicted while the store retains
	// the version — including across a process restart, when the
	// publisher resumes minting at Store.LastVersion()+1. The publisher
	// does not own the store: the process that opened it closes it
	// after the engine stops.
	Store *provstore.Store
}

// NewPublisherWithOptions is the fully-optioned publisher constructor;
// NewPublisher is the shorthand for an unsharded, memory-only one.
func NewPublisherWithOptions(eng *engine.Engine, opts PublisherOptions) (*Publisher, error) {
	retain := opts.Retain
	if retain < 1 {
		retain = DefaultRetain
	}
	shard := opts.Shard
	if shard.Total < 0 || (shard.Total > 0 && (shard.Index < 0 || shard.Index >= shard.Total)) {
		return nil, fmt.Errorf("server: bad shard spec %s", shard)
	}
	all := eng.Nodes()
	if shard.Total > len(all) {
		return nil, fmt.Errorf("server: %d shards over %d nodes leaves empty shards", shard.Total, len(all))
	}
	p := &Publisher{
		eng:      eng,
		cache:    NewResultCache(),
		retain:   retain,
		shard:    shard,
		allNodes: all,
		ownedIdx: make([]int, len(all)),
		index:    make(map[string]int),
	}
	for i, addr := range all {
		n, _ := eng.Node(addr)
		if n.Prov == nil {
			return nil, fmt.Errorf("server: node %s has no provenance store", addr)
		}
		p.ownedIdx[i] = -1
		if OwnerOf(i, shard.Total) == shard.Index {
			p.ownedIdx[i] = len(p.owned)
			p.index[addr] = len(p.owned)
			p.owned = append(p.owned, addr)
			p.ownedNodes = append(p.ownedNodes, n)
		}
	}
	if opts.Store != nil {
		// Version records address nodes by owned index, so the store's
		// identity must match this shard's exactly.
		if !slices.Equal(opts.Store.Owned(), p.owned) {
			return nil, fmt.Errorf("server: snapshot store owns %d nodes, shard %s owns %d (different deployment?)",
				len(opts.Store.Owned()), shard, len(p.owned))
		}
		p.store = opts.Store
		p.verBase = opts.Store.LastVersion()
		p.diskCache = map[uint64]*Snapshot{}
	}
	p.states = make([]*nodeState, len(p.owned))
	p.cur.Store(&ring{})
	// The initial snapshot is built by a direct Publish, which also
	// consumes every change made before attach: every shard of a
	// deployment mints version 1 from the replayed, identical boot state.
	if p.Publish() == nil {
		return nil, *p.failed.Load()
	}
	eng.SetEpochObserver(func() { p.Publish() })
	return p, nil
}

// Store returns the attached snapshot store (nil without one). The
// owning process uses it for shutdown syncs; handlers use it for
// deep-history queries.
func (p *Publisher) Store() *provstore.Store { return p.store }

// teeToStore appends the version just published to the snapshot store:
// state entries for the rebuilt partitions, info updates for the
// traffic-only refreshes (both already in ascending owned order). It
// runs on the simulation thread, right after the states are built. A
// failed append stops the publisher (see Publisher.failed): minting on
// would break the no-eviction contract and leave a version gap the
// store can never fill.
func (p *Publisher) teeToStore(version uint64, now simnet.Time, states []*nodeState, dirty []int) error {
	in := provstore.VersionInput{Version: version, Time: int64(now)}
	for _, oi := range dirty {
		st := states[oi]
		in.States = append(in.States, provstore.NodeState{
			OwnedIdx: oi,
			Info:     st.info.Info,
			Tables:   st.tables,
			View:     st.view,
		})
	}
	for _, oi := range p.infoDirty {
		in.Infos = append(in.Infos, provstore.InfoUpdate{OwnedIdx: oi, Info: states[oi].info.Info})
	}
	if err := p.store.Append(in); err != nil {
		return fmt.Errorf("server: snapshot store append failed at version %d: %w", version, err)
	}
	return nil
}

// diskCacheSize bounds the materialized historical snapshots kept
// alive for repeated reads (FIFO; each entry carries full rebuilt
// tables and views, so the bound is deliberately small).
const diskCacheSize = 16

// diskAt serves a version that aged out of the in-memory ring from
// the snapshot store. Safe for concurrent use; materialized snapshots
// are cached so a pinned client's request burst rebuilds once. The
// error is the store's: provstore.ErrNotRetained for a version it does
// not hold, anything else for one it holds but cannot read.
func (p *Publisher) diskAt(version uint64) (*Snapshot, error) {
	p.diskMu.Lock()
	if snap, ok := p.diskCache[version]; ok {
		p.diskMu.Unlock()
		return snap, nil
	}
	p.diskMu.Unlock()

	vd, err := p.store.Materialize(version)
	if err != nil {
		return nil, err
	}
	snap := p.snapshotFromDisk(vd)

	p.diskMu.Lock()
	defer p.diskMu.Unlock()
	if cached, ok := p.diskCache[version]; ok {
		// A concurrent reader built it first; share its snapshot.
		return cached, nil
	}
	p.diskCache[version] = snap
	p.diskOrder = append(p.diskOrder, version)
	if len(p.diskOrder) > diskCacheSize {
		p.cache.Drop(p.diskOrder[0])
		delete(p.diskCache, p.diskOrder[0])
		p.diskOrder = p.diskOrder[1:]
	}
	return snap, nil
}

// snapshotFromDisk rebuilds a full Snapshot from materialized store
// data. The store's contract makes the frozen tables and views
// bit-for-bit equivalent to what was teed in, so responses rendered
// from this snapshot are byte-identical to what the live ring served
// at that version.
func (p *Publisher) snapshotFromDisk(vd *provstore.VersionData) *Snapshot {
	states := make([]*nodeState, len(vd.Nodes))
	for i := range vd.Nodes {
		nd := &vd.Nodes[i]
		states[i] = &nodeState{
			tables:    nd.Tables,
			view:      nd.View,
			info:      NodeInfo{Addr: nd.Addr, Info: nd.Info},
			stateTime: simnet.Time(nd.StateTime),
		}
	}
	return p.newSnapshot(vd.Version, simnet.Time(vd.Time), states)
}
