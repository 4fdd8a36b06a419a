package provgraph

import (
	"context"
	"time"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// Source supplies a Walk with one system's provenance partitions and
// its cross-node hop mechanism. The walk only ever reads partition data
// for the location it is currently at; it crosses to another node
// exclusively through ExpandRemote, so an implementation decides what a
// hop costs (real messages live, modeled counters on snapshots).
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
	// ExpandRemote evaluates rule execution rid at node loc — where it
	// executed — on behalf of node from, eventually calling cont with
	// the derivation-level sub-result. Implementations account the
	// request/response cost of the hop and re-enter the walk at loc via
	// w.ExpandExecLocal.
	ExpandRemote(w *Walk, from, loc string, rid rel.ID, visited []rel.ID, cont func(SubResult))
	// CacheGet/CachePut back Options.UseCache with a per-node
	// sub-result cache. Implementations that do not cache return
	// ok=false and ignore puts.
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

// Walk is one query's traversal state: the query parameters plus the
// node budget shared across every location the walk reaches. A Walk is
// driven by exactly one evaluation at a time (the simulation thread
// live, one goroutine on snapshots) and is not safe for concurrent use.
type Walk struct {
	Type QueryType
	Opts Options
	src  Source
	ctx  context.Context

	resolved int // tuple vertices resolved so far (MaxNodes budget)
	err      error
}

// NewWalk prepares a traversal of the given type over src, without a
// cancellation context (the walk runs to completion).
func NewWalk(src Source, typ QueryType, opts Options) *Walk {
	//lint:allow ctxflow context-free compatibility entry point: a walk without cancellation runs to completion by design
	return NewWalkContext(context.Background(), src, typ, opts)
}

// NewWalkContext prepares a traversal whose expansion aborts once ctx
// is cancelled or its deadline passes. The walk still unwinds cleanly —
// every outstanding continuation fires with an empty sub-result — but
// the final result is partial and Err reports why; adapters must turn
// an aborted walk into an error, never into a Result.
func NewWalkContext(ctx context.Context, src Source, typ QueryType, opts Options) *Walk {
	return &Walk{Type: typ, Opts: opts, src: src, ctx: ctx}
}

// Err returns nil while the walk is live, and the context's error once
// cancellation or a deadline stopped the traversal mid-walk.
func (w *Walk) Err() error { return w.err }

// Resolved returns how many tuple vertices the walk has resolved so
// far — the cancellation tests use it to prove an aborted walk stopped
// early instead of draining the whole graph.
func (w *Walk) Resolved() int { return w.resolved }

// abort checks the walk's context; once it fires, every pending
// expansion short-circuits with an empty sub-result so the in-flight
// continuation tree drains immediately. The deadline is compared
// directly instead of waiting for ctx.Err(), so a passed deadline
// aborts at the very next vertex regardless of timer granularity.
func (w *Walk) abort(cont func(SubResult)) bool {
	if w.err == nil {
		if err := w.ctx.Err(); err != nil {
			w.err = err
		} else if d, ok := w.ctx.Deadline(); ok && !time.Now().Before(d) {
			w.err = context.DeadlineExceeded
		}
	}
	if w.err != nil {
		cont(SubResult{Nodes: map[string]bool{}})
		return true
	}
	return false
}

func (w *Walk) useCache() bool { return w.Opts.UseCache && !w.Opts.Limited() }

func (w *Walk) cacheKey(vid rel.ID) CacheKey {
	return CacheKey{VID: vid, Type: w.Type, Threshold: w.Opts.Threshold}
}

// ResolveTuple computes the sub-result for the tuple vid stored at loc:
// cycle detection on the visited path, traversal limits, per-node cache
// lookup, threshold pruning, and one derivation branch per prov entry.
func (w *Walk) ResolveTuple(loc string, vid rel.ID, visited []rel.ID, cont func(SubResult)) {
	if w.abort(cont) {
		return
	}
	for _, seen := range visited {
		if seen == vid {
			tuple, _ := w.src.TupleOf(loc, vid)
			cont(CycleResult(vid, tuple, loc))
			return
		}
	}
	if w.Opts.MaxDepth > 0 && len(visited) >= w.Opts.MaxDepth {
		tuple, _ := w.src.TupleOf(loc, vid)
		cont(TruncatedResult(vid, tuple, loc))
		return
	}
	if w.Opts.MaxNodes > 0 && w.resolved >= w.Opts.MaxNodes {
		tuple, _ := w.src.TupleOf(loc, vid)
		cont(TruncatedResult(vid, tuple, loc))
		return
	}
	w.resolved++
	if w.useCache() {
		if res, ok := w.src.CacheGet(loc, w.cacheKey(vid)); ok {
			cont(res)
			return
		}
	}
	tuple, ok := w.src.TupleOf(loc, vid)
	if !ok {
		cont(MissingResult(vid, loc))
		return
	}
	derivs, ok := w.src.Derivations(loc, vid)
	if !ok {
		cont(MissingResult(vid, loc))
		return
	}
	pruned := false
	if w.Opts.Threshold > 0 && len(derivs) > w.Opts.Threshold {
		derivs = derivs[:w.Opts.Threshold]
		pruned = true
	}
	node := &ProofNode{VID: vid, Tuple: tuple, Loc: loc, Pruned: pruned}
	acc := SubResult{
		Node:   node,
		Nodes:  map[string]bool{loc: true},
		Pruned: pruned,
	}
	childVisited := append(append([]rel.ID(nil), visited...), vid)

	var thunks []Thunk
	for _, d := range derivs {
		d := d
		if d.RID.IsZero() {
			node.Base = true
			acc.Bases = append(acc.Bases, TupleAt{Tuple: tuple, Loc: loc})
			acc.Count++
			continue
		}
		thunks = append(thunks, func(cont func(SubResult)) {
			if d.RLoc == loc {
				w.ExpandExecLocal(loc, d.RID, childVisited, cont)
			} else {
				w.src.ExpandRemote(w, loc, d.RLoc, d.RID, childVisited, cont)
			}
		})
	}
	RunAll(thunks, w.Opts.Sequential, func(results []SubResult) {
		for _, r := range results {
			MergeInto(&acc, r)
		}
		// An aborted walk's accumulator is partial: never cache it.
		if w.useCache() && w.err == nil {
			w.src.CachePut(loc, w.cacheKey(vid), acc)
		}
		cont(acc)
	})
}

// ExpandExecLocal resolves a rule execution at the node where it ran:
// all its input tuples are local; each is resolved (possibly recursing
// to other nodes) and combined into a derivation-level result.
func (w *Walk) ExpandExecLocal(loc string, rid rel.ID, visited []rel.ID, cont func(SubResult)) {
	if w.abort(cont) {
		return
	}
	exec, ok := w.src.Exec(loc, rid)
	if !ok {
		cont(MissingResult(rid, loc))
		return
	}
	var thunks []Thunk
	for _, vid := range exec.VIDs {
		vid := vid
		thunks = append(thunks, func(cont func(SubResult)) {
			w.ResolveTuple(loc, vid, visited, cont)
		})
	}
	RunAll(thunks, w.Opts.Sequential, func(results []SubResult) {
		deriv := &ProofDeriv{RID: rid, Rule: exec.Rule, RLoc: loc}
		out := SubResult{
			Nodes: map[string]bool{loc: true},
			Count: 1,
		}
		for _, r := range results {
			if r.Node != nil {
				deriv.Children = append(deriv.Children, r.Node)
			}
			out.Bases = append(out.Bases, r.Bases...)
			for n := range r.Nodes {
				out.Nodes[n] = true
			}
			out.Count *= r.Count
			out.Pruned = out.Pruned || r.Pruned
			out.Truncated = out.Truncated || r.Truncated
		}
		out.Node = &ProofNode{Derivs: []*ProofDeriv{deriv}} // carrier; merged by caller
		cont(out)
	})
}
