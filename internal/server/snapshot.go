// Package server turns a NetTrails simulation into a concurrent
// provenance query service: cmd/nettrailsd runs it behind an HTTP JSON
// API. Its core mechanism is epoch-snapshot isolation.
//
// The engine is single-threaded by contract — every runtime, table,
// and provenance partition belongs to the simulation thread. Live
// provquery queries are themselves simulation events: they travel over
// the simulated network and advance virtual time, so they cannot run
// concurrently with the simulation or with each other. A query *server*
// therefore never touches live state. Instead, a Publisher hooks the engine's epoch
// observer: after every fully-delivered virtual-time epoch — a
// consistent cut of the distributed execution — it builds an immutable
// Snapshot (copy-on-publish, with per-table and per-partition version
// tracking so unchanged state is handed off rather than re-copied) and
// swaps it into an atomic pointer. HTTP readers load the pointer and
// evaluate queries with provquery.SnapshotClient against the frozen
// views:
//
//   - readers never block the simulation loop (they take no locks the
//     publisher ever holds; publishing is one atomic store),
//   - the simulation never blocks readers (old snapshots stay valid
//     after newer ones are published),
//   - two queries pinned to the same snapshot version always see
//     byte-identical state, no matter how far the simulation has
//     advanced in between.
//
// A bounded ring of recent snapshots supports version pinning. Version
// is also the only time-travel key: GET /v1/state/{node}?t=... resolves
// the virtual time to a version (Publisher.atTime) and reads that
// version like any other pin.
package server

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/provstore"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// ShardSpec places one serving process inside a sharded deployment:
// it is shard Index of Total. Node ownership is positional and
// deterministic — OwnerOf, the one node-partitioning rule, deals
// the network's sorted node list round-robin. Every shard and every
// gateway derives the same routing table from the node list alone; no
// coordination service is needed.
// The zero value (and any Total <= 1) means unsharded: one process
// owns every partition.
type ShardSpec struct {
	// Index is this shard's 0-based position, 0 <= Index < Total.
	Index int
	// Total is how many shards the deployment is split across.
	Total int
}

// Unsharded reports whether the spec describes a whole-network
// (single-process) deployment.
func (s ShardSpec) Unsharded() bool { return s.Total <= 1 }

// OwnerOf is the one node-partitioning rule: the node at 0-based
// position pos of the network's sorted node list belongs to shard
// pos mod n — dealt round-robin; n <= 1 means a single owner. Only the
// shards apply it: a gateway learns ownership from /v1/shards.
func OwnerOf(pos, n int) int {
	if n <= 1 {
		return 0
	}
	return pos % n
}

// String renders the spec in the "index/total" form the -shard flag
// accepts.
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Total) }

// OwnedNodes filters the sorted node list down to the addresses the
// spec's shard owns (all of them when unsharded).
func (s ShardSpec) OwnedNodes(sorted []string) []string {
	if s.Unsharded() {
		return sorted
	}
	var out []string
	for i, addr := range sorted {
		if OwnerOf(i, s.Total) == s.Index {
			out = append(out, addr)
		}
	}
	return out
}

// NodeInfo is the per-node metadata frozen into a snapshot: the
// address, and what a stored version record carries for the node.
//
// nettrails:frozen
type NodeInfo struct {
	Addr string
	provstore.Info
}

// nodeState is one node's frozen partition inside a snapshot: the
// persistent table views, the provenance view, and the published
// metadata. When a node processed nothing between two epochs its
// *nodeState is carried into the next snapshot untouched — the handoff
// that makes publishing O(changed nodes), not O(network).
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type nodeState struct {
	tables map[string]*rel.Frozen
	view   *provenance.View
	info   NodeInfo
	// stateTime is the virtual time of the version that last changed the
	// node's tables or view (info-only refreshes keep it): what a ?t=
	// read reports as virtualTimeUs. Not part of NodeDigest — it is when
	// the state was published, not the state.
	stateTime simnet.Time
}

// Snapshot is one immutable published view of the whole system at a
// consistent virtual instant. Everything reachable from a Snapshot is
// frozen: concurrent readers share it without synchronization, and
// consecutive snapshots share every per-node state (tables, views) that
// did not change between them.
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type Snapshot struct {
	// Version numbers published snapshots densely from 1; it increases
	// only when some node's state actually changed, so equal versions
	// imply identical state.
	Version uint64
	// Time is the virtual time of the epoch that produced the snapshot.
	Time simnet.Time
	// Nodes lists the node addresses this snapshot holds partitions
	// for, sorted — every node of the network when unsharded, only the
	// owned subset on a shard.
	Nodes []string
	// AllNodes lists every node address in the whole network, sorted.
	// Identical to Nodes when unsharded.
	AllNodes []string
	// Shard records which slice of the deployment this snapshot serves
	// (the zero value when unsharded).
	Shard ShardSpec

	// states holds the frozen per-node partitions, parallel to Nodes;
	// index maps address -> position (one map, shared by every snapshot
	// of the publisher — the node set is fixed).
	states []*nodeState
	index  map[string]int
	query  *provquery.SnapshotClient
	cache  *ResultCache // the publisher's, shared by every version
}

// stateOf returns the frozen state of an owned node, nil otherwise.
func (s *Snapshot) stateOf(addr string) *nodeState {
	if i, ok := s.index[addr]; ok {
		return s.states[i]
	}
	return nil
}

// PartitionView resolves an owned node's provenance view; together
// with KnownNode this makes the snapshot itself the provquery
// ViewResolver, so no per-publish view map is materialized.
func (s *Snapshot) PartitionView(addr string) (provquery.PartitionView, bool) {
	st := s.stateOf(addr)
	if st == nil {
		return nil, false
	}
	return st.view, true
}

// KnownNode reports whether addr is a node of the wider network whose
// partition lives on another shard (always false when unsharded: every
// network node is owned, so an unresolved address is simply unknown).
func (s *Snapshot) KnownNode(addr string) bool {
	if s.Shard.Unsharded() {
		return false
	}
	_, ok := s.nodeIndex(addr)
	return ok
}

// nodeIndex returns addr's position in the sorted AllNodes, which
// decides the shard that owns it; ok is false outside the network.
func (s *Snapshot) nodeIndex(addr string) (int, bool) {
	return slices.BinarySearch(s.AllNodes, addr)
}

// Query evaluates a provenance query against this snapshot. Safe for
// concurrent use.
func (s *Snapshot) Query(typ provquery.QueryType, at string, t rel.Tuple, opts provquery.Options) (*provquery.Result, error) {
	return s.query.Query(typ, at, t, opts)
}

// NodeTables returns a node's frozen tables (persistent views keyed by
// relation); ok is false for unknown nodes.
func (s *Snapshot) NodeTables(addr string) (map[string]*rel.Frozen, bool) {
	st := s.stateOf(addr)
	if st == nil {
		return nil, false
	}
	return st.tables, true
}

// NodeInfo returns an owned node's published metadata (neighbors,
// tuple and provenance counts, traffic); ok is false for unknown nodes.
func (s *Snapshot) NodeInfo(addr string) (NodeInfo, bool) {
	st := s.stateOf(addr)
	if st == nil {
		return NodeInfo{}, false
	}
	return st.info, true
}

// viewOf returns an owned node's provenance view, nil otherwise.
func (s *Snapshot) viewOf(addr string) *provenance.View {
	if st := s.stateOf(addr); st != nil {
		return st.view
	}
	return nil
}

// misdirected returns the wrong-shard error for a node that exists in
// the network but is owned by another shard, and nil otherwise.
func (s *Snapshot) misdirected(addr string) *client.APIError {
	if s.Shard.Unsharded() || s.stateOf(addr) != nil {
		return nil
	}
	i, ok := s.nodeIndex(addr)
	if !ok {
		return nil
	}
	return Errf(http.StatusMisdirectedRequest, client.CodeWrongShard,
		"node %q is owned by shard %d/%d, not this shard (%s)",
		addr, OwnerOf(i, s.Shard.Total), s.Shard.Total, s.Shard)
}

// ring is the immutable list of retained snapshots, ascending by
// version; the last element is current. Swapped wholesale on publish.
//
// nettrails:frozen
type ring struct {
	snaps []*Snapshot
}

// Publisher builds snapshots from a live engine and publishes them for
// lock-free readers. All its methods except Current/At/Versions must
// run on the simulation thread (Publish is normally invoked via the
// engine's epoch observer and never called directly).
//
// The engine's node set is fixed once a deployment is constructed, so
// every node list, engine handle, and lookup structure is captured at
// construction; Publish itself allocates nothing per unchanged node.
type Publisher struct {
	eng    *engine.Engine
	retain int
	shard  ShardSpec

	allNodes   []string       // every node, sorted; shared by all snapshots
	owned      []string       // owned subset, sorted; shared by all snapshots
	ownedNodes []*engine.Node // parallel to owned
	ownedIdx   []int          // allNodes position -> owned position, -1 if unowned
	index      map[string]int // owned addr -> owned position; shared by all snapshots

	cur atomic.Pointer[ring]

	// cache is the one result cache of every version served, ring and
	// disk cache alike; a version leaving either is dropped from it.
	cache *ResultCache

	states    []*nodeState // parallel to owned; spine copied per publish
	dirty     []int        // scratch: owned positions to rebuild this publish
	infoDirty []int        // scratch: owned positions refreshed info-only

	// Disk persistence (nil without a store; see PublisherOptions).
	// verBase is the store's last version at attach time: minting
	// resumes at verBase+1 after a restart, and the first publish is
	// full (every owned node dirty) so the resumed chain stays
	// self-contained. The disk cache is the only publisher state HTTP
	// readers mutate, hence its own lock.
	store   *provstore.Store
	verBase uint64
	// failed holds the first publish failure: a store append that did
	// not complete. From then on the publisher mints nothing, reads of
	// every retained version keep answering, and healthz reports it.
	failed atomic.Pointer[error]

	diskMu    sync.Mutex
	diskCache map[uint64]*Snapshot
	diskOrder []uint64 // insertion-ordered diskCache keys (FIFO eviction)
}

// DefaultRetain is how many recent snapshot versions a publisher keeps
// for version-pinned reads when no explicit retention is given.
const DefaultRetain = 64

// NewPublisher attaches a publisher to the engine's epoch observer and
// publishes the initial snapshot (version 1) so Current never returns
// nil. retain bounds how many recent versions stay pinnable (values
// < 1 mean DefaultRetain).
func NewPublisher(eng *engine.Engine, retain int) (*Publisher, error) {
	return NewPublisherWithOptions(eng, PublisherOptions{Retain: retain})
}

// Shard returns which slice of the deployment this publisher serves
// (the zero ShardSpec when unsharded).
func (p *Publisher) Shard() ShardSpec { return p.shard }

// Engine returns the engine this publisher observes. Everything but
// the snapshot accessors must run on the simulation thread; the
// engine is exposed for the process that owns that thread (churn
// loops, tests), not for HTTP readers.
func (p *Publisher) Engine() *engine.Engine { return p.eng }

// Detach removes the publisher from the engine's epoch observer. The
// already-published snapshots remain readable.
func (p *Publisher) Detach() { p.eng.SetEpochObserver(nil) }

// Current returns the newest snapshot. Safe for concurrent use.
func (p *Publisher) Current() *Snapshot {
	r := p.cur.Load()
	return r.snaps[len(r.snaps)-1]
}

// At returns the retained snapshot with the given version; ok is false
// when it was never published or has aged out of retention. Version 0
// means current. With a snapshot store attached, versions older than
// the in-memory ring are rebuilt from disk (and cached), so pinned
// reads keep working as long as the store retains the version — even
// across a restart. Safe for concurrent use.
func (p *Publisher) At(version uint64) (*Snapshot, bool) {
	snap, err := p.resolve(version)
	return snap, err == nil
}

// resolve is At with the reason for a miss: provstore.ErrNotRetained
// for a version that was never published or has aged out of the ring
// and the store, any other error for a version the store holds but
// cannot read.
func (p *Publisher) resolve(version uint64) (*Snapshot, error) {
	r := p.cur.Load()
	if version == 0 {
		return r.snaps[len(r.snaps)-1], nil
	}
	// Versions are dense and ascending: index arithmetic, no scan.
	first := r.snaps[0].Version
	if version >= first && version <= r.snaps[len(r.snaps)-1].Version {
		return r.snaps[version-first], nil
	}
	if version < first && p.store != nil {
		return p.diskAt(version)
	}
	return nil, provstore.ErrNotRetained
}

// atTime is the time -> version index behind ?t=: the snapshot of the
// latest version v <= pin published at or before virtual time t, or
// provstore.ErrNotRetained when no reachable version is that old. It
// bisects the dense version range Versions reports, exactly what
// resolve reaches — O(1) probes of the ring's snapshot times, one
// version-record read per probe below it — then resolves v: O(log
// versions) probes and nothing per node.
//
// Virtual time restarts at 0 with the process, so version -> time is
// nondecreasing only within one run, and the search never crosses the
// verBase boundary: a pin minted by this run searches (verBase, pin], a
// pin at or below verBase searches [store oldest, pin].
func (p *Publisher) atTime(pin uint64, t simnet.Time) (*Snapshot, error) {
	r := p.cur.Load()
	first := r.snaps[0].Version
	// Versions loads the ring after r, so without a store lo >= first
	// and every probe below stays inside r.
	lo, _ := p.Versions()
	if pin > p.verBase {
		lo = max(lo, p.verBase+1)
	}
	if pin < lo {
		return nil, provstore.ErrNotRetained
	}
	var err error
	n := sort.Search(int(pin-lo)+1, func(i int) bool {
		v := lo + uint64(i)
		if v >= first {
			return r.snaps[v-first].Time > t
		}
		at, e := p.store.VersionTime(v)
		if e != nil {
			err = e
			return true
		}
		return simnet.Time(at) > t
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, provstore.ErrNotRetained
	}
	return p.resolve(lo + uint64(n) - 1)
}

// newSnapshot builds the snapshot of one version over its per-node
// states: the one constructor for minted and disk-rebuilt snapshots.
func (p *Publisher) newSnapshot(version uint64, now simnet.Time, states []*nodeState) *Snapshot {
	snap := &Snapshot{
		Version:  version,
		Time:     now,
		Nodes:    p.owned,
		AllNodes: p.allNodes,
		Shard:    p.shard,
		states:   states,
		index:    p.index,
		cache:    p.cache,
	}
	// The snapshot is its own view resolver: no per-publish view map.
	snap.query = provquery.NewResolverClient(snap)
	return snap
}

// Versions returns the oldest and newest retained versions — oldest
// reaches back to the snapshot store's floor when one is attached.
// Safe for concurrent use.
func (p *Publisher) Versions() (oldest, newest uint64) {
	r := p.cur.Load()
	oldest, newest = r.snaps[0].Version, r.snaps[len(r.snaps)-1].Version
	if p.store != nil {
		if o := p.store.OldestVersion(); o != 0 && o < oldest {
			oldest = o
		}
	}
	return oldest, newest
}

// Publish builds a snapshot of the engine's state and publishes it.
// It runs on the simulation thread (epoch observer), between epochs, so
// reading every node is race-free. When no node's state changed since
// the last publish, the current snapshot is returned unchanged —
// versions advance only with state. The engine's change verdict
// (engine.Changes) spans the whole network, even on a sharded publisher,
// so every shard of the same deterministic run
// mints the same version sequence (what lets a gateway pin one version
// everywhere); only the freezing is restricted to owned nodes. Once a
// store append has failed, Publish publishes nothing and returns nil.
func (p *Publisher) Publish() *Snapshot {
	prev := p.cur.Load().snaps
	changed, dirty := p.eng.Changes() // consumed even when stopped, so it cannot grow
	if p.failed.Load() != nil {
		return nil
	}
	p.dirty = p.dirty[:0]
	if len(prev) == 0 {
		// The first publish of a fresh deployment mints 1; after a restart
		// with a snapshot store it resumes the store's dense sequence at
		// verBase+1. Either way every owned node is rebuilt, so the
		// resumed chain's first record is self-contained.
		for oi := range p.owned {
			p.dirty = append(p.dirty, oi)
		}
		return p.mint(p.verBase+1, p.dirty)
	}
	if !changed {
		return prev[len(prev)-1]
	}
	for _, pos := range dirty {
		if oi := p.ownedIdx[pos]; oi >= 0 {
			p.dirty = append(p.dirty, oi)
		}
	}
	return p.mint(prev[len(prev)-1].Version+1, p.dirty)
}

// mint builds and publishes the snapshot with the given version,
// rebuilding the owned positions listed in dirty (ascending). When the
// store cannot take the version, mint records the failure in p.failed,
// publishes nothing and returns nil.
func (p *Publisher) mint(version uint64, dirty []int) *Snapshot {
	prev := p.cur.Load()
	now := p.eng.Net.Now()

	// Rebuild only the dirty owned partitions. FreezeAll and View are
	// persistent handoffs (O(1) per unchanged table and per provenance
	// partition); every clean node's *nodeState rides into the new
	// snapshot untouched.
	states := make([]*nodeState, len(p.states))
	copy(states, p.states)
	for _, oi := range dirty {
		addr := p.owned[oi]
		n := p.ownedNodes[oi]
		tables, count := n.RT.Store.FreezeAll()
		view := n.Prov.View()
		info := NodeInfo{Addr: addr, Info: provstore.Info{
			Neighbors: p.eng.Net.Neighbors(addr),
			Tuples:    count,
			Prov:      view.Statistics(),
		}}
		if sent, _, ok := p.eng.Net.NodeTraffic(addr); ok {
			info.SentMsgs = sent.Messages
			info.SentBytes = sent.Bytes
		}
		states[oi] = &nodeState{tables: tables, view: view, info: info, stateTime: now}
	}
	// Traffic can move without state changing anywhere on the node (a
	// live provenance query's messages, a duplicate delta): refresh the
	// published counters of carried-over states with an O(1) compare per
	// node, sharing the tables and view of the previous state. Dirty
	// nodes never retrigger here — their counters were just read — so
	// infoDirty stays disjoint from dirty (and ascending, which the
	// store's Append requires).
	p.infoDirty = p.infoDirty[:0]
	for oi, st := range states {
		if sent, _, ok := p.eng.Net.NodeTraffic(p.owned[oi]); ok &&
			(sent.Messages != st.info.SentMsgs || sent.Bytes != st.info.SentBytes) {
			info := st.info
			info.SentMsgs, info.SentBytes = sent.Messages, sent.Bytes
			states[oi] = &nodeState{tables: st.tables, view: st.view, info: info, stateTime: st.stateTime}
			p.infoDirty = append(p.infoDirty, oi)
		}
	}
	if p.store != nil {
		if err := p.teeToStore(version, now, states, dirty); err != nil {
			p.failed.Store(&err)
			return nil
		}
	}
	p.states = states

	snap := p.newSnapshot(version, now, states)
	snaps := append(append([]*Snapshot{}, prev.snaps...), snap)
	if drop := len(snaps) - p.retain; drop > 0 {
		for _, old := range snaps[:drop] {
			p.cache.Drop(old.Version)
		}
		snaps = snaps[drop:]
	}
	p.cur.Store(&ring{snaps: snaps})
	return snap
}
