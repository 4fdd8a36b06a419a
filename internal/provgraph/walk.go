package provgraph

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// Source supplies a Walk with one system's provenance partitions and
// its cross-node hop mechanism. The walk only ever reads partition data
// for the location it is currently at; it crosses to another node
// exclusively through Cross, so an implementation decides how a hop
// travels (a simnet message live, at once on snapshots, a batched shard
// read at the gateway). The walk itself counts each leg's modeled
// traffic.
type Source interface {
	// TupleOf resolves a pinned VID to its tuple value at loc.
	TupleOf(loc string, vid rel.ID) (rel.Tuple, bool)
	// Derivations returns the derivation entries of a tuple at loc in
	// deterministic order; ok is false when the tuple is unknown there.
	// The slice may be borrowed from the source (a live store's list is
	// valid only until its next mutation): read it, never keep it.
	Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool)
	// Exec returns the rule execution recorded for rid at loc.
	Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool)
	// Cross carries hop h out to h.Loc(), where its rule execution is
	// expanded, and then back to h.From() with the result (h.Back()),
	// and calls h.Resume, at once or when the leg arrives.
	Cross(h *Hop)
	// Err is the source's first failure (a partition not held here, a
	// shard that did not answer). Once it is set the walk starts no
	// further frame and the query fails with it.
	Err() error
}

// Cache backs Options.UseCache with a per-node sub-result cache. It is
// optional: a Source that implements it is consulted for each tuple
// vertex; the walk never caches over any other source.
type Cache interface {
	CacheGet(loc string, key CacheKey) (SubResult, bool)
	CachePut(loc string, key CacheKey, res SubResult)
}

// CacheKey identifies a cacheable per-node sub-result: the tuple, what
// is being computed about it, and the only option that changes the
// value path-independently (threshold). Traversal limits are excluded —
// the walk bypasses the cache entirely while they are set.
type CacheKey struct {
	VID       rel.ID
	Type      QueryType
	Threshold int
}

// Walk is one query's traversal: the query parameters, the node budget
// shared across every location the walk reaches, and a stack of frames,
// one per tuple vertex and one per rule execution being expanded. A
// frame's chain of parents is its visited path. A Walk is driven by
// exactly one evaluation at a time (the simulation thread live, one
// goroutine on snapshots) and is not safe for concurrent use.
type Walk struct {
	Type  QueryType
	Opts  Options
	src   Source
	cache Cache // src's per-node cache, if it has one
	ctx   context.Context

	resolved int // tuple vertices resolved so far (MaxNodes budget)
	msgs     int // modeled hop legs: a request out, a response back
	bytes    int // their modeled wire size
	resumes  int // hop legs the source has delivered
	err      error
	running  bool
	done     bool
	out      SubResult
	*frames  // from NewWalkContext until the walk is done
}

// frames is what a finished walk hands to the next one, so a stream of
// queries allocates little beyond its results.
type frames struct {
	stack []*frame // frames that can issue a child or are on their way back, innermost last
	free  []*frame
	enc   []byte // scratch for a base tuple's wire encoding
}

var framePool = sync.Pool{New: func() any { return new(frames) }}

// frame is one tuple vertex or one rule execution, with the accumulator
// of what the query asks about its subtree: the proof tree and its size
// (Lineage), the base tuples and their wire size, the node set, or the
// count.
type frame struct {
	w      *Walk
	parent *frame
	slot   int    // position among the parent's children
	exec   bool   // a rule execution; otherwise a tuple vertex
	hop    bool   // an execution at another node than its parent's
	back   bool   // a finished hop on its way back to its parent
	queued bool   // on the stack
	loc    string // the node the frame is evaluated at
	id     rel.ID // the tuple's VID, or the execution's RID
	depth  int    // tuple vertices above: the length of the visited path

	kids    []kid // derivations (tuple) or input tuples (execution)
	next    int   // kids issued
	pending int   // kids issued and not yet delivered

	acc   SubResult   // the walk's type's fields; Node is a tuple frame's vertex
	deriv *ProofDeriv // Lineage: an execution frame's derivation
}

// kid is a derivation (its RID, and the node its rule ran at) or an
// input tuple (its VID, at the execution's node).
type kid struct {
	id  rel.ID
	loc string
}

// Run answers one query over src: it checks that at records provenance
// for t, walks, and calls wait (nil when Cross resumes every hop at
// once) to deliver the hops src holds until the walk is done or wait
// delivers none. A cancelled walk is waited out, so none of its hops
// outlives the call; a failed source is not. Run returns one error or a
// Result whose Stats hold the modeled traffic, never a partial result.
func Run(ctx context.Context, src Source, typ QueryType, at string, t rel.Tuple, opts Options, wait func()) (*Result, error) {
	vid := t.VID()
	if _, ok := src.Derivations(at, vid); !ok {
		if err := src.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("provquery: tuple %s has %w at %s", t, ErrNoProvenance, at)
	}
	w := NewWalkContext(ctx, src, typ, opts)
	w.Start(at, vid)
	for !w.done && wait != nil && src.Err() == nil {
		n := w.resumes
		wait()
		if w.resumes == n {
			break
		}
	}
	switch srcErr := src.Err(); {
	case w.err != nil:
		return nil, fmt.Errorf("provquery: query for %s aborted after %d vertices: %w", t, w.resolved, w.err)
	case srcErr != nil:
		return nil, srcErr
	case !w.done:
		return nil, fmt.Errorf("provquery: query for %s did not complete", t)
	}
	res := NewResult(typ, w.out)
	res.Stats = Stats{Messages: w.msgs, Bytes: w.bytes}
	return res, nil
}

// NewWalkContext prepares a traversal whose expansion aborts once ctx
// is cancelled or its deadline passes, or src reports an error: no
// frame starts and no child is issued after that, so the walk unwinds
// at once, but its result is partial; Run turns it into an error.
func NewWalkContext(ctx context.Context, src Source, typ QueryType, opts Options) *Walk {
	w := &Walk{Type: typ, Opts: opts, src: src, ctx: ctx, frames: framePool.Get().(*frames)}
	w.cache, _ = src.(Cache)
	return w
}

// Err returns nil while the walk is live, and the context's error once
// cancellation or a deadline stopped the traversal mid-walk.
func (w *Walk) Err() error { return w.err }

// Resolved returns how many tuple vertices the walk has resolved so
// far — the cancellation tests use it to prove an aborted walk stopped
// early instead of draining the whole graph.
func (w *Walk) Resolved() int { return w.resolved }

// Start walks from the tuple vid stored at loc. Under a source that
// resumes every hop at once the walk is Done when Start returns;
// otherwise it goes on in Hop.Resume as the source's replies arrive.
func (w *Walk) Start(loc string, vid rel.ID) {
	w.startTuple(w.newFrame(nil, 0, kid{vid, loc}))
	w.run()
}

// Done reports whether the walk has its root's sub-result, Out.
func (w *Walk) Done() bool { return w.done }

// Out returns the root's sub-result once the walk is Done.
func (w *Walk) Out() SubResult { return w.out }

// run works the stack until each frame on it has finished or waits for
// a parked hop. The innermost frame issues its next child, which runs
// as far as it can before the frame issues another, so the source sees
// its calls in depth-first order except where it parks a hop. A
// Sequential frame waits for each child to be delivered before issuing
// the next, which makes that order, and with it MaxNodes' frontier,
// the same under every source.
func (w *Walk) run() {
	w.running = true
	for len(w.stack) > 0 {
		f := w.stack[len(w.stack)-1]
		if !f.back && f.next < len(f.kids) && w.err == nil && (f.pending == 0 || !w.Opts.Sequential) {
			w.issue(f)
			continue
		}
		w.stack, f.queued = w.stack[:len(w.stack)-1], false
		if f.back {
			w.deliver(f)
		} else if f.pending == 0 {
			w.close(f)
		}
	}
	w.running = false
	if w.done && w.frames != nil {
		framePool.Put(w.frames)
		w.frames = nil
	}
}

func (w *Walk) push(f *frame) {
	f.queued = true
	w.stack = append(w.stack, f)
}

func (w *Walk) newFrame(parent *frame, slot int, k kid) *frame {
	var f *frame
	if n := len(w.free); n > 0 {
		f, w.free = w.free[n-1], w.free[:n-1]
	} else {
		f = new(frame)
	}
	f.w, f.parent, f.slot, f.id, f.loc = w, parent, slot, k.id, k.loc
	return f
}

// release keeps a delivered frame's buffers for the next frame.
func (w *Walk) release(f *frame) {
	clear(f.acc.Bases)
	*f = frame{kids: f.kids[:0], acc: SubResult{Bases: f.acc.Bases[:0], Nodes: f.acc.Nodes[:0]}}
	w.free = append(w.free, f)
}

// issue starts f's next child: an input tuple of an execution, or a
// derivation's rule execution, which is a Hop when it ran elsewhere.
func (w *Walk) issue(f *frame) {
	c := w.newFrame(f, f.next, f.kids[f.next])
	f.next++
	f.pending++
	switch {
	case f.exec:
		c.depth = f.depth
		w.startTuple(c)
	case c.loc == f.loc:
		c.exec, c.depth = true, f.depth+1
		w.startExec(c)
	default:
		c.exec, c.hop, c.depth = true, true, f.depth+1
		w.cross(c)
	}
}

// cross charges the hop f's next leg, the request out or the response
// back, to the walk's traffic model and hands it to the source.
func (w *Walk) cross(f *frame) {
	h := (*Hop)(f)
	size := h.RequestSize()
	if f.back {
		size = h.ResponseSize()
	}
	w.msgs, w.bytes = w.msgs+1, w.bytes+size
	w.src.Cross(h)
}

// aborted checks the source and the walk's context. The deadline is
// compared directly instead of waiting for ctx.Err(), so a passed
// deadline aborts at the very next frame regardless of timer
// granularity.
func (w *Walk) aborted() bool {
	if w.err != nil || w.src.Err() != nil {
		return true
	}
	if err := w.ctx.Err(); err != nil {
		w.err = err
	} else if d, ok := w.ctx.Deadline(); ok && !time.Now().Before(d) {
		w.err = context.DeadlineExceeded
	}
	return w.err != nil
}

// cacheKey is f's key in the per-node cache, when the walk uses it.
func (w *Walk) cacheKey(f *frame) (CacheKey, bool) {
	return CacheKey{VID: f.id, Type: w.Type, Threshold: w.Opts.Threshold}, w.cache != nil && w.Opts.UseCache && !w.Opts.Limited()
}

// startTuple resolves the tuple vertex f: cycle detection on the
// visited path, traversal limits, per-node cache lookup, threshold
// pruning, and one child per derivation that is not a base entry.
func (w *Walk) startTuple(f *frame) {
	if w.aborted() {
		w.finish(f)
		return
	}
	cycle := false
	for a := f.parent; a != nil && !cycle; a = a.parent {
		cycle = !a.exec && a.id == f.id
	}
	if cycle || (w.Opts.MaxDepth > 0 && f.depth >= w.Opts.MaxDepth) || (w.Opts.MaxNodes > 0 && w.resolved >= w.Opts.MaxNodes) {
		tuple, _ := w.src.TupleOf(f.loc, f.id)
		f.acc.Truncated = !cycle
		w.leaf(f, tuple, cycle)
		return
	}
	w.resolved++
	if key, ok := w.cacheKey(f); ok {
		if r, ok := w.cache.CacheGet(f.loc, key); ok {
			bases, nodes := append(f.acc.Bases, r.Bases...), append(f.acc.Nodes, r.Nodes...)
			f.acc = r // its lists stay the cache's: copy them into f's own
			f.acc.Bases, f.acc.Nodes = bases, nodes
			w.finish(f)
			return
		}
	}
	tuple, ok := w.src.TupleOf(f.loc, f.id)
	var derivs []provenance.Entry
	if ok {
		derivs, ok = w.src.Derivations(f.loc, f.id)
	}
	if !ok {
		w.leaf(f, rel.Tuple{}, false)
		return
	}
	if w.Opts.Threshold > 0 && len(derivs) > w.Opts.Threshold {
		derivs, f.acc.Pruned = derivs[:w.Opts.Threshold], true
	}
	base := false
	for _, d := range derivs {
		if !d.RID.IsZero() {
			f.kids = append(f.kids, kid{d.RID, d.RLoc})
			continue
		}
		base = true
		f.acc.Count++
		if w.Type == BaseTuples {
			w.enc = rel.AppendTuple(w.enc[:0], tuple)
			f.acc.Bases = append(f.acc.Bases, Base{VID: f.id, TupleAt: TupleAt{Tuple: tuple, Loc: f.loc}})
			f.acc.BaseBytes += len(w.enc) + 8
		}
	}
	if w.Type == Lineage {
		f.acc.Node, f.acc.Size = &ProofNode{VID: f.id, Tuple: tuple, Loc: f.loc, Base: base, Pruned: f.acc.Pruned}, 1
		if len(f.kids) > 0 {
			f.acc.Node.Derivs = make([]*ProofDeriv, len(f.kids))
		}
	}
	addNode(f, f.loc)
	w.push(f)
}

// leaf finishes the tuple frame f without expanding it: a cycle, a
// truncation frontier, or a tuple without provenance at f.loc.
func (w *Walk) leaf(f *frame, tuple rel.Tuple, cycle bool) {
	if w.Type == Lineage {
		f.acc.Node, f.acc.Size = &ProofNode{VID: f.id, Tuple: tuple, Loc: f.loc, Cycle: cycle, Truncated: f.acc.Truncated}, 1
	}
	addNode(f, f.loc)
	w.finish(f)
}

// startExec resolves the rule execution f at the node where it ran:
// all its input tuples are local there, one child each.
func (w *Walk) startExec(f *frame) {
	if w.aborted() {
		w.finish(f)
		return
	}
	addNode(f, f.loc)
	exec, ok := w.src.Exec(f.loc, f.id)
	if !ok {
		w.finish(f)
		return
	}
	for _, vid := range exec.VIDs {
		f.kids = append(f.kids, kid{vid, f.loc})
	}
	if w.Type == Lineage {
		f.deriv = &ProofDeriv{RID: f.id, Rule: exec.Rule, RLoc: f.loc, Children: make([]*ProofNode, len(f.kids))}
	}
	f.acc.Count = 1
	w.push(f)
}

// addNode records loc in a Nodes walk's set.
func addNode(f *frame, loc string) {
	if f.w.Type == Nodes && !slices.Contains(f.acc.Nodes, loc) {
		f.acc.Nodes = append(f.acc.Nodes, loc)
	}
}

// close finishes an expanded frame once every child it issued has been
// delivered.
func (w *Walk) close(f *frame) {
	if f.acc.Node != nil {
		// An execution that was not found leaves its slot empty.
		f.acc.Node.Derivs = slices.DeleteFunc(f.acc.Node.Derivs, func(d *ProofDeriv) bool { return d == nil })
	}
	// An aborted walk's accumulator is partial: never cache it.
	if key, ok := w.cacheKey(f); ok && !f.exec && w.err == nil && w.src.Err() == nil {
		w.cache.CachePut(f.loc, key, w.result(f, false))
	}
	w.finish(f)
}

// finish hands f's accumulator on: to the walk's result at the root,
// back across the network for a hop, else to the parent.
func (w *Walk) finish(f *frame) {
	switch {
	case f.parent == nil:
		w.out, w.done = w.result(f, true), true
		f.acc.Bases, f.acc.Nodes = nil, nil // handed over
		w.release(f)
	case f.hop && !f.back:
		f.back = true
		w.cross(f)
	default:
		w.deliver(f)
	}
}

// deliver merges the finished child c into its parent: a derivation's
// count is the product of its inputs', a tuple's the sum of its
// derivations' and base entries. A parent off the stack goes back on
// once nothing is pending, to issue its next child or to close.
func (w *Walk) deliver(c *frame) {
	p := c.parent
	if p.exec {
		p.acc.Count *= c.acc.Count
	} else {
		p.acc.Count += c.acc.Count
	}
	if w.Type == Lineage {
		if p.exec {
			p.deriv.Children[c.slot] = c.acc.Node
		} else {
			p.acc.Node.Derivs[c.slot] = c.deriv
		}
	}
	p.acc.Size += c.acc.Size
	p.acc.Bases = append(p.acc.Bases, c.acc.Bases...)
	p.acc.BaseBytes += c.acc.BaseBytes
	for _, n := range c.acc.Nodes {
		addNode(p, n)
	}
	p.acc.Pruned = p.acc.Pruned || c.acc.Pruned
	p.acc.Truncated = p.acc.Truncated || c.acc.Truncated
	p.pending--
	w.release(c)
	if !p.queued && p.pending == 0 {
		w.push(p)
	}
}

// result is f's accumulator as a SubResult, with the field of the
// walk's type. own hands f's lists over; otherwise they are copied, for
// a cache entry that outlives f.
func (w *Walk) result(f *frame, own bool) SubResult {
	r := f.acc
	if w.Type != DerivCount {
		r.Count = 0
	}
	if !own {
		r.Bases, r.Nodes = slices.Clone(f.acc.Bases), slices.Clone(f.acc.Nodes)
	}
	return r
}

// Hop is a rule execution the walk expands at another node than the
// one it is at: the frame a Source carries across the network.
type Hop frame

// From is the node the hop leaves from and returns to, Loc the node
// its rule ran at, where it is expanded, RID that execution, and Back
// whether the hop is on its way back with its result.
func (h *Hop) From() string { return h.parent.loc }
func (h *Hop) Loc() string  { return h.loc }
func (h *Hop) RID() rel.ID  { return h.id }
func (h *Hop) Back() bool   { return h.back }

// Resume continues h's walk once the source has carried h across: out,
// h's execution is expanded at h.Loc(); back, its result is delivered
// to the frame that issued it.
func (h *Hop) Resume() {
	w, f := h.w, (*frame)(h)
	w.resumes++
	if f.back {
		w.push(f)
	} else {
		w.startExec(f)
	}
	if !w.running {
		w.run()
	}
}

// RequestSize approximates the wire size of the hop's request, which
// carries the visited path (the VIDs of the tuple frames above it).
func (h *Hop) RequestSize() int { return 64 + 20*h.depth }

// ResponseSize approximates the wire size of the hop's result by query
// type: lineage ships tree structure, base-tuples ships tuples, nodes
// ships addresses, counts ship integers. This is what makes the cheaper
// query types measurably cheaper, as in ExSPAN.
func (h *Hop) ResponseSize() int {
	switch h.w.Type {
	case Lineage:
		return 48 + 96*h.acc.Size
	case BaseTuples:
		return 48 + h.acc.BaseBytes
	case Nodes:
		return 48 + 16*len(h.acc.Nodes)
	case DerivCount:
		return 56
	}
	return 48
}
