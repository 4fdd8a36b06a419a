// Package engine is the distributed execution layer of NetTrails,
// playing RapidNet's role: it hosts one NDlog runtime per simulated
// node, routes derived tuples across the simnet network, and drives the
// ExSPAN provenance maintenance engine from rule-execution hooks.
//
// The compilation pipeline applied to a program is:
//
//	parse → analyze → localize → analyze → compile
//
// after which every rule body is single-location and cross-node dataflow
// happens via tuple messages carrying provenance annotations.
package engine

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/rewrite"
	"repro/internal/simnet"
)

// Message kinds used on the wire.
const (
	KindDelta = "delta" // tuple deltas between NDlog runtimes
)

// DeltaMsg is the payload of a cross-node tuple delta: the signed tuple
// plus its provenance annotation (the rule execution that produced it).
type DeltaMsg struct {
	Delta eval.Delta
	Prov  provenance.Entry
	// HasProv is false for engine-relayed base tuples.
	HasProv bool
}

// DeltaBatch is the payload of a coalesced delta message: every delta
// one epoch emitted over a single src→dst link, merged by the epoch
// scheduler into one wire message (the batch rides under KindDelta).
// Receivers apply the entries in emission order.
type DeltaBatch struct {
	Msgs []DeltaMsg
}

// Options configures an Engine. Every link it connects carries
// simnet.LinkLatency.
type Options struct {
	Seed int64
	// Provenance enables ExSPAN maintenance (on by default via New).
	Provenance bool
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Seed: 1, Provenance: true}
}

// Node is one simulated NetTrails node: an NDlog runtime plus a
// provenance partition.
type Node struct {
	Addr string
	RT   *eval.Runtime
	Prov *provenance.Store
	eng  *Engine
	// Soft-state bookkeeping: softGen is a monotonically increasing
	// per-tuple generation (never reset, so stale timers can always be
	// detected); softLive marks tuples currently base-inserted.
	softGen  map[rel.ID]uint64
	softLive map[rel.ID]bool
	// cap, when non-nil, redirects this node's outbound sends into the
	// epoch scheduler's capture buffer. It is set only while the
	// scheduler delivers a delta to this node (scheduler.go).
	cap *[]sentDelta
	// The change scan's per-node part (scheduler.go): pos is the node's
	// Nodes() position, touched puts it on the engine's touched list
	// until the next scan, and seenState/seenProv are the versions that
	// scan last saw.
	pos                 int
	touched             bool
	seenState, seenProv uint64
}

// Touch marks the node for the next change scan; message dispatch and
// InsertFact/DeleteFact call it. Any code that writes to a node's
// runtime tables or provenance store directly must call Touch on that
// node, on the simulation thread, or the scan will treat the node as
// unchanged and publishers serve stale state.
func (n *Node) Touch() {
	if !n.touched {
		n.touched = true
		n.eng.touched = append(n.eng.touched, n)
	}
}

// Engine couples the per-node runtimes to the simulated network.
type Engine struct {
	Net   *simnet.Network
	nodes map[string]*Node
	opts  Options

	source    *ndlog.Program // program as written
	localized *ndlog.Program // after localization
	compiled  *eval.Compiled

	services map[string]func(n *Node, m simnet.Message)

	// OnEvalError observes runtime evaluation errors (default: panic,
	// because silent evaluation errors make experiments lie).
	OnEvalError func(addr string, err error)
	// draining marks an active epoch-scheduler drain. Re-entrant
	// RunQuiescent calls (a service handler inserting facts) return
	// immediately: the outer drain still runs to quiescence, and
	// deferring the new events keeps the epoch schedule identical to
	// the serial loop's, which would also finish the current instant's
	// events before the new ones.
	draining bool
	// epochObserver, when set, runs on the scheduler thread after each
	// fully-delivered virtual-time epoch (every node has consumed every
	// event of the instant), which is exactly when global state forms a
	// consistent cut. Snapshot publishers hook here; see
	// SetEpochObserver.
	epochObserver func()
	// captured is the epoch scheduler's send buffer, reused across
	// delta runs (scheduler.go).
	captured []sentDelta
	// The change scan's verdict until Changes or the next cut consumes
	// it (scheduler.go); touched lists the nodes to scan.
	touched []*Node
	changed bool
	dirty   []int
}

// New compiles src (NDlog text) and builds an engine with the given
// node addresses.
func New(src string, nodeAddrs []string, opts Options) (*Engine, error) {
	prog, err := ndlog.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewFromProgram(prog, nodeAddrs, opts)
}

// NewFromProgram builds an engine from a parsed program.
func NewFromProgram(prog *ndlog.Program, nodeAddrs []string, opts Options) (*Engine, error) {
	if _, err := ndlog.Analyze(prog); err != nil {
		return nil, fmt.Errorf("engine: source program: %w", err)
	}
	localized, err := rewrite.Localize(prog)
	if err != nil {
		return nil, err
	}
	analysis, err := ndlog.Analyze(localized)
	if err != nil {
		return nil, fmt.Errorf("engine: localized program: %w", err)
	}
	compiled, err := eval.Compile(analysis)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Net:       simnet.New(opts.Seed),
		nodes:     map[string]*Node{},
		opts:      opts,
		source:    prog,
		localized: localized,
		compiled:  compiled,
		services:  map[string]func(*Node, simnet.Message){},
	}
	for _, addr := range nodeAddrs {
		if err := e.addNode(addr); err != nil {
			return nil, err
		}
	}
	for pos, addr := range e.Nodes() {
		e.nodes[addr].pos = pos
	}
	return e, nil
}

func (e *Engine) addNode(addr string) error {
	if _, ok := e.nodes[addr]; ok {
		return fmt.Errorf("engine: duplicate node %s", addr)
	}
	rt, err := eval.NewRuntime(addr, e.compiled)
	if err != nil {
		return err
	}
	n := &Node{Addr: addr, RT: rt, eng: e, softGen: map[rel.ID]uint64{}, softLive: map[rel.ID]bool{}}
	if e.opts.Provenance {
		n.Prov = provenance.NewStore(addr)
	}
	n.seenState, n.seenProv = n.versions()
	rt.ErrFn = func(err error) {
		if e.OnEvalError != nil {
			e.OnEvalError(addr, err)
			return
		}
		panic(fmt.Sprintf("engine: node %s: %v", addr, err))
	}
	if n.Prov != nil {
		// Attached only with provenance on: an attached hook is what makes
		// the runtime mint each firing's VIDs and RID.
		rt.FireFn = func(f eval.Firing) {
			// Transient (event) outputs are not materialized, so their
			// provenance is not tracked; only persistent heads enter the
			// graph, matching ExSPAN's table-oriented model.
			if sch, ok := rt.Store.Catalog().Lookup(f.Output.Rel); ok && sch.Persistent {
				n.Prov.RecordFiring(f)
			}
		}
	}
	rt.SendFn = func(dst string, d eval.Delta, f eval.Firing) {
		sd := sentDelta{from: addr, to: dst, dm: DeltaMsg{Delta: d}, size: wireSize(d.Tuple)}
		if n.Prov != nil {
			if sch, ok := rt.Store.Catalog().Lookup(d.Tuple.Rel); ok && sch.Persistent {
				// The entry RecordFiring stored for f, from what f carries.
				sd.dm.Prov = provenance.Entry{VID: d.Tuple.VID(), RID: f.RID, RLoc: addr}
				sd.dm.HasProv = true
			}
		}
		n.netSend(sd)
	}
	if err := e.Net.AddNode(addr, func(m simnet.Message) { e.dispatch(n, m) }); err != nil {
		return err
	}
	e.nodes[addr] = n
	return nil
}

// wireSize approximates the on-wire size of a tuple delta: the canonical
// tuple encoding plus the provenance annotation (VID+RID+loc) and
// framing.
func wireSize(t rel.Tuple) int {
	var scratch [256]byte
	return len(rel.AppendTuple(scratch[:0], t)) + 48
}

func (e *Engine) dispatch(n *Node, m simnet.Message) {
	n.Touch()
	if m.Kind == KindDelta {
		switch dm := m.Payload.(type) {
		case DeltaMsg:
			e.applyRemoteProv(n, dm)
			n.RT.ReceiveRemote(dm.Delta)
		case DeltaBatch:
			ds := make([]eval.Delta, len(dm.Msgs))
			for i, one := range dm.Msgs {
				e.applyRemoteProv(n, one)
				ds[i] = one.Delta
			}
			n.RT.ReceiveRemoteBatch(ds)
		default:
			panic(fmt.Sprintf("engine: bad delta payload %T", m.Payload))
		}
		return
	}
	if h, ok := e.services[m.Kind]; ok {
		h(n, m)
		return
	}
	panic(fmt.Sprintf("engine: node %s: no service for message kind %q", n.Addr, m.Kind))
}

// applyRemoteProv mirrors an incoming delta's provenance annotation
// into the destination's partition before evaluation sees the delta.
func (e *Engine) applyRemoteProv(n *Node, dm DeltaMsg) {
	if n.Prov != nil && dm.HasProv {
		n.Prov.ApplyRemote(dm.Delta.Tuple, dm.Prov, dm.Delta.Sign)
	}
}

// RegisterService routes messages of the given kind (e.g. provenance
// queries, snapshot collection) to a handler.
func (e *Engine) RegisterService(kind string, h func(n *Node, m simnet.Message)) error {
	if kind == KindDelta {
		return fmt.Errorf("engine: kind %q is reserved", kind)
	}
	if _, dup := e.services[kind]; dup {
		return fmt.Errorf("engine: service %q already registered", kind)
	}
	e.services[kind] = h
	return nil
}

// Node returns the node with the given address.
func (e *Engine) Node(addr string) (*Node, bool) {
	n, ok := e.nodes[addr]
	return n, ok
}

// Nodes returns all node addresses, sorted.
func (e *Engine) Nodes() []string { return e.Net.Nodes() }

// Source returns the program as written.
func (e *Engine) Source() *ndlog.Program { return e.source }

// Localized returns the program after localization.
func (e *Engine) Localized() *ndlog.Program { return e.localized }

// Catalog returns the compiled catalog (post-localization).
func (e *Engine) Catalog() *rel.Catalog { return e.compiled.Analysis.Catalog }

// InsertFact inserts a base tuple at the node named by its location
// attribute and runs the network to quiescence.
func (e *Engine) InsertFact(t rel.Tuple) error {
	n, err := e.ownerOf(t)
	if err != nil {
		return err
	}
	if err := n.InsertFact(t); err != nil {
		return err
	}
	e.RunQuiescent()
	return nil
}

// DeleteFact retracts a base tuple previously inserted with InsertFact
// and runs the network to quiescence.
func (e *Engine) DeleteFact(t rel.Tuple) error {
	n, err := e.ownerOf(t)
	if err != nil {
		return err
	}
	if err := n.DeleteFact(t); err != nil {
		return err
	}
	e.RunQuiescent()
	return nil
}

func (e *Engine) ownerOf(t rel.Tuple) (*Node, error) {
	sch, ok := e.Catalog().Lookup(t.Rel)
	if !ok {
		return nil, fmt.Errorf("engine: undeclared relation %s", t.Rel)
	}
	loc, ok := t.Loc(sch)
	if !ok {
		return nil, fmt.Errorf("engine: tuple %s has no location attribute", t)
	}
	n, ok := e.nodes[loc]
	if !ok {
		return nil, fmt.Errorf("engine: no node %s for tuple %s", loc, t)
	}
	return n, nil
}

// LoadProgramFacts inserts every fact rule (empty body) of the source
// program at its owning node, then runs to quiescence.
func (e *Engine) LoadProgramFacts() error {
	for _, r := range e.source.Rules {
		if len(r.Body) != 0 || r.Maybe {
			continue
		}
		t, err := r.Head.Fact()
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		if err := e.InsertFact(t); err != nil {
			return err
		}
	}
	return nil
}

// RunQuiescent drains all pending network events on the caller's
// goroutine. With an epoch observer attached it runs the epoch loop
// (scheduler.go), which stops at every virtual instant; otherwise it
// runs the classic serial discrete-event loop.
// Both drains converge to the same state for the same seed; traffic
// counters differ by the epoch loop's per-link coalescing only, which
// is why the serial loop stays (docs/ARCHITECTURE.md).
func (e *Engine) RunQuiescent() {
	if e.epochObserver == nil {
		e.Net.Run(0)
		return
	}
	if e.draining {
		return // re-entrant: the active drain reaches quiescence
	}
	e.runEpochs()
}

// SetEpochObserver installs fn to run on the scheduler thread after
// every fully-delivered epoch, i.e. at each consistent virtual instant;
// Changes tells fn what changed there. While an observer is set,
// RunQuiescent drains through the epoch loop so the observer fires at
// true epoch granularity; per-node state is identical either way, only per-link
// message coalescing differs. fn must not re-enter the engine's event
// loop (RunQuiescent from fn is a no-op by design) and must confine
// itself to reading engine state. A nil fn detaches. Attach and detach
// belong to the simulation thread, like every other engine call:
// detach after the thread has stopped draining.
func (e *Engine) SetEpochObserver(fn func()) { e.epochObserver = fn }

// InsertFact inserts a base tuple at this node, mirroring NDlog
// key-replacement into the provenance store. Soft-state relations
// (finite materialize lifetime) schedule an expiry; re-insertion
// refreshes it.
func (n *Node) InsertFact(t rel.Tuple) error {
	n.Touch()
	t = t.Identified()
	if err := n.mirrorKeyReplacement(t); err != nil {
		return err
	}
	sch, hasSchema := n.RT.Store.Catalog().Lookup(t.Rel)
	soft := hasSchema && sch.Persistent && sch.LifetimeSecs > 0
	if soft {
		if n.softLive[t.VID()] {
			// Refresh: the identical tuple is already base-inserted;
			// just push the expiry out. No new derivation is added.
			n.scheduleExpiry(t, sch.LifetimeSecs)
			return nil
		}
	}
	if n.Prov != nil && hasSchema && sch.Persistent {
		n.Prov.AddBase(t)
	}
	if err := n.RT.InsertBase(t); err != nil {
		return err
	}
	if soft {
		n.scheduleExpiry(t, sch.LifetimeSecs)
	}
	return nil
}

// scheduleExpiry arms a soft-state timeout. A later re-insertion bumps
// the generation, turning stale expirations into no-ops.
func (n *Node) scheduleExpiry(t rel.Tuple, secs int64) {
	vid := t.VID()
	n.softGen[vid]++
	n.softLive[vid] = true
	gen := n.softGen[vid]
	n.eng.Net.After(simnet.Time(secs)*simnet.Second, func() {
		if n.softGen[vid] != gen || !n.softLive[vid] {
			return // refreshed or manually deleted in the meantime
		}
		if err := n.DeleteFact(t); err != nil {
			panic(fmt.Sprintf("engine: %s: soft-state expiry: %v", n.Addr, err))
		}
	})
}

// mirrorKeyReplacement removes base provenance of tuples the runtime's
// key-replacement is about to retract.
func (n *Node) mirrorKeyReplacement(t rel.Tuple) error {
	if n.Prov == nil {
		return nil
	}
	sch, ok := n.RT.Store.Catalog().Lookup(t.Rel)
	if !ok || !sch.Persistent || len(sch.KeyCols) == 0 {
		return nil
	}
	tbl, err := n.RT.Store.Table(t.Rel)
	if err != nil {
		return err
	}
	for _, old := range tbl.KeyConflicts(t) {
		n.Prov.RemoveBase(old.Tuple)
	}
	return nil
}

// DeleteFact retracts a base tuple at this node. The tuple must have
// been inserted as a fact here; retracting derived-only tuples corrupts
// the count/provenance correspondence.
func (n *Node) DeleteFact(t rel.Tuple) error {
	n.Touch()
	t = t.Identified()
	sch, hasSchema := n.RT.Store.Catalog().Lookup(t.Rel)
	if hasSchema && sch.Persistent && sch.LifetimeSecs > 0 {
		// Cancel any pending soft-state expiry for this tuple. The
		// generation stays monotonic so armed timers see the change.
		n.softGen[t.VID()]++
		delete(n.softLive, t.VID())
	}
	if n.Prov != nil && hasSchema && sch.Persistent {
		n.Prov.RemoveBase(t)
	}
	return n.RT.DeleteBase(t)
}

// Engine returns the owning engine (for services).
func (n *Node) Engine() *Engine { return n.eng }

// Tuples returns the visible tuples of a relation at this node, sorted.
func (n *Node) Tuples(relName string) ([]rel.Tuple, error) {
	tbl, err := n.RT.Store.Table(relName)
	if err != nil {
		return nil, err
	}
	return tbl.Tuples(), nil
}

// AddBiLink connects two nodes in simnet and inserts symmetric
// link(@a,b,cost) tuples, the common base topology of the demo
// protocols. It runs to quiescence.
func (e *Engine) AddBiLink(a, b string, cost int64) error {
	if _, err := e.Net.Connect(a, b, simnet.LinkLatency); err != nil {
		return err
	}
	if err := e.InsertFact(rel.NewTuple("link", rel.Addr(a), rel.Addr(b), rel.Int(cost))); err != nil {
		return err
	}
	return e.InsertFact(rel.NewTuple("link", rel.Addr(b), rel.Addr(a), rel.Int(cost)))
}

// RemoveBiLink retracts both link tuples and marks the simnet link down.
func (e *Engine) RemoveBiLink(a, b string, cost int64) error {
	if err := e.DeleteFact(rel.NewTuple("link", rel.Addr(a), rel.Addr(b), rel.Int(cost))); err != nil {
		return err
	}
	if err := e.DeleteFact(rel.NewTuple("link", rel.Addr(b), rel.Addr(a), rel.Int(cost))); err != nil {
		return err
	}
	e.Net.SetLinkUp(a, b, false)
	return nil
}

// GlobalTuples gathers a relation across every node, sorted (test and
// snapshot helper).
func (e *Engine) GlobalTuples(relName string) []rel.Tuple {
	var out []rel.Tuple
	for _, addr := range e.Nodes() {
		n := e.nodes[addr]
		if ts, err := n.Tuples(relName); err == nil {
			out = append(out, ts...)
		}
	}
	return out
}
