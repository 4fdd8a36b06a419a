package eval

import (
	"fmt"
	"slices"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// Delta is a signed tuple change: +1 adds a derivation, -1 retracts one.
type Delta struct {
	Tuple rel.Tuple
	Sign  int
}

// Firing records one rule execution (or retraction thereof). It is the
// unit of provenance: ExSPAN's rule-execution vertices correspond 1:1 to
// +1 firings, and deletions retract them. Inputs are in body-atom order.
type Firing struct {
	RuleName  string
	Inputs    []rel.Tuple
	Output    rel.Tuple
	OutputLoc string
	Sign      int
	// RID is the rule execution's content identity, minted once by
	// NewFiring and read by everything downstream (the provenance store,
	// the wire annotation). It stays zero on a firing no hook observes.
	RID rel.ID
}

// NewFiring builds the firing of rule at node loc and mints its content
// identity: the output is Identified and RID is RuleExecID over the
// inputs' VIDs, which inputs read out of tables already carry.
func NewFiring(rule, loc string, inputs []rel.Tuple, output rel.Tuple, outputLoc string, sign int) Firing {
	var scratch [8]rel.ID
	vids := scratch[:0]
	for _, in := range inputs {
		vids = append(vids, in.VID())
	}
	return Firing{RuleName: rule, Inputs: inputs, Output: output.Identified(), OutputLoc: outputLoc,
		Sign: sign, RID: RuleExecID(rule, loc, vids)}
}

// Stats counts runtime activity.
type Stats struct {
	DeltasProcessed int
	Firings         int
	Retractions     int
	TuplesSent      int
	EvalErrors      int
}

// Runtime evaluates a compiled program at one node. It is single-
// threaded by design: the engine serializes message delivery per node,
// matching the discrete-event execution model of RapidNet/ns-3.
//
// Confinement contract: all of a Runtime's state (store, delta queue,
// aggregate states, stats) is owned by whichever goroutine is driving
// the node. The engine drains on one goroutine, the caller of
// RunQuiescent, so Runtimes never need locks. The Compiled program a
// Runtime reads is shared across nodes and must stay immutable while
// any runtime is executing. The hooks run mid-join: they must not
// apply deltas to this runtime's tables.
type Runtime struct {
	Addr  string
	Store *Store

	prog *Compiled
	aggs map[string]*aggState

	queue []Delta
	stats Stats

	// binding and trail are the join's working state: every step binds
	// into the one map and undoes through the trail when it backtracks
	// (see fireTrigger).
	binding Binding
	trail   Trail

	// SendFn delivers a head tuple whose location is another node,
	// with the firing that derived it as provenance context.
	SendFn func(dst string, d Delta, f Firing)
	// FireFn observes every rule execution (+1) and retraction (-1);
	// the provenance layer maintains prov/ruleExec from it.
	FireFn func(Firing)
	// ErrFn observes per-binding evaluation errors (e.g. a builtin
	// applied to the wrong type); evaluation continues.
	ErrFn func(error)
}

// NewRuntime builds a runtime for one node over a compiled program.
func NewRuntime(addr string, prog *Compiled) (*Runtime, error) {
	rt := &Runtime{
		Addr:  addr,
		Store: NewStore(prog.Analysis.Catalog),
		prog:  prog,
		aggs:  map[string]*aggState{},
	}
	for _, req := range prog.IndexRequests {
		sch, ok := prog.Analysis.Catalog.Lookup(req.Rel)
		if !ok || !sch.Persistent {
			continue
		}
		tbl, err := rt.Store.Table(req.Rel)
		if err != nil {
			return nil, err
		}
		if err := tbl.EnsureIndex(req.Cols); err != nil {
			return nil, err
		}
	}
	for _, cr := range prog.Rules {
		if cr.Agg != nil {
			rt.aggs[cr.Name] = newAggState(cr)
		}
	}
	return rt, nil
}

// Stats returns a copy of the counters.
func (rt *Runtime) Statistics() Stats { return rt.stats }

// Program returns the compiled program.
func (rt *Runtime) Program() *Compiled { return rt.prog }

func (rt *Runtime) errf(format string, args ...interface{}) {
	rt.stats.EvalErrors++
	if rt.ErrFn != nil {
		rt.ErrFn(fmt.Errorf(format, args...))
	}
}

// InsertBase enqueues a base-tuple insertion and runs to fixpoint.
// If the relation has a primary key and another tuple with the same key
// is present, that tuple's base derivation is retracted first (NDlog
// key-replacement semantics).
func (rt *Runtime) InsertBase(t rel.Tuple) error {
	sch, ok := rt.Store.Catalog().Lookup(t.Rel)
	if !ok {
		return fmt.Errorf("eval: insert into undeclared relation %s", t.Rel)
	}
	if err := rt.Store.Catalog().CheckTuple(t); err != nil {
		return err
	}
	if sch.Persistent && len(sch.KeyCols) > 0 {
		tbl, err := rt.Store.Table(t.Rel)
		if err != nil {
			return err
		}
		for _, old := range tbl.KeyConflicts(t) {
			rt.queue = append(rt.queue, Delta{Tuple: old.Tuple, Sign: -1})
		}
	}
	rt.queue = append(rt.queue, Delta{Tuple: t, Sign: 1})
	rt.Flush()
	return nil
}

// DeleteBase retracts one derivation of a base tuple and runs to
// fixpoint.
func (rt *Runtime) DeleteBase(t rel.Tuple) error {
	if _, ok := rt.Store.Catalog().Lookup(t.Rel); !ok {
		return fmt.Errorf("eval: delete from undeclared relation %s", t.Rel)
	}
	rt.queue = append(rt.queue, Delta{Tuple: t, Sign: -1})
	rt.Flush()
	return nil
}

// ReceiveRemote applies a delta that arrived from another node and runs
// to fixpoint.
func (rt *Runtime) ReceiveRemote(d Delta) {
	rt.queue = append(rt.queue, d)
	rt.Flush()
}

// ReceiveRemoteBatch applies a batch of deltas that arrived from other
// nodes as one unit: every delta is enqueued before the queue drains,
// so a k-delta batch runs one fixpoint instead of k. Counting-based
// maintenance makes the final state insensitive to the processing
// order, so batching only skips the intermediate fixpoints. The
// engine's epoch scheduler feeds coalesced per-link delta batches
// through this path.
func (rt *Runtime) ReceiveRemoteBatch(ds []Delta) {
	rt.queue = append(rt.queue, ds...)
	rt.Flush()
}

// Flush drains the local delta queue to fixpoint. processDelta
// appends as it goes, so the walk is by index, and the drained queue
// keeps its capacity for the next flush. The drained slots are cleared,
// so they pin no tuple; a panicking delta leaves the queue with those
// before it, and the rest stay queued.
func (rt *Runtime) Flush() {
	next := 0
	defer func() {
		rest := copy(rt.queue, rt.queue[next:])
		clear(rt.queue[rest:])
		rt.queue = rt.queue[:rest]
	}()
	for next < len(rt.queue) {
		d := rt.queue[next]
		next++
		rt.processDelta(d)
	}
}

func (rt *Runtime) processDelta(d Delta) {
	rt.stats.DeltasProcessed++
	// Hashed here at the latest, once: the table, the triggers' firings
	// and the provenance hooks all read the VID the delta now carries.
	d.Tuple = d.Tuple.Identified()
	sch, ok := rt.Store.Catalog().Lookup(d.Tuple.Rel)
	if !ok {
		rt.errf("eval: delta for undeclared relation %s", d.Tuple.Rel)
		return
	}
	if !sch.Persistent {
		// Events: fire-and-forget; deletions are meaningless.
		if d.Sign > 0 {
			rt.fireAll(d.Tuple, 1)
		}
		return
	}
	tbl, err := rt.Store.Table(d.Tuple.Rel)
	if err != nil {
		rt.errf("eval: %v", err)
		return
	}
	if d.Sign > 0 {
		tr := tbl.Apply(d.Tuple, 1)
		if tr == rel.Appeared {
			rt.fireAll(d.Tuple, 1)
		}
	} else {
		// Deletion triggers run while the tuple is still visible so
		// self-joins can find it; it is removed afterwards.
		row, present := tbl.Get(d.Tuple.VID())
		if !present {
			return
		}
		if row.Count == 1 {
			rt.fireAll(d.Tuple, -1)
		}
		tbl.Apply(d.Tuple, -1)
	}
}

// fireAll runs every trigger matching the (dis)appearing tuple.
func (rt *Runtime) fireAll(t rel.Tuple, sign int) {
	for _, tr := range rt.prog.TriggersFor(t.Rel) {
		rt.fireTrigger(tr, t, sign)
	}
}

func (rt *Runtime) fireTrigger(tr *trigger, delta rel.Tuple, sign int) {
	// A join a hook panicked out of, or re-entered, leaves the shared
	// binding taken; the next join then starts from a fresh one.
	b := rt.binding
	rt.binding = nil
	if b == nil {
		b = Binding{}
	}
	mark := len(rt.trail)
	if MatchAtom(tr.atom, delta, b, &rt.trail) {
		// One slot per body atom, in body order: every atom step fills
		// its own before the plan can reach emit. A rule of up to four
		// atoms keeps them on the stack.
		var scratch [4]rel.Tuple
		inputs := append(scratch[:0], make([]rel.Tuple, tr.rule.atoms)...)
		inputs[tr.slot] = delta
		rt.joinStep(tr, 0, b, inputs, delta, sign)
		rt.trail.Undo(b, mark)
	}
	rt.binding = b
}

// joinStep runs plan step stepIdx under b and recurses on each way the
// step extends it. Every step leaves b as it found it.
func (rt *Runtime) joinStep(tr *trigger, stepIdx int, b Binding, inputs []rel.Tuple, delta rel.Tuple, sign int) {
	if stepIdx == len(tr.seq) {
		// inputs is rewritten by the next probe row; the firing keeps its own.
		rt.emit(tr.rule, b, slices.Clone(inputs), sign)
		return
	}
	st := tr.seq[stepIdx]
	switch term := st.term.(type) {
	case *ndlog.Cond:
		ok, err := EvalCond(term, b)
		if err != nil {
			rt.errf("eval: rule %s: %v", tr.rule.Name, err)
			return
		}
		if ok {
			rt.joinStep(tr, stepIdx+1, b, inputs, delta, sign)
		}
	case *ndlog.Assign:
		v, err := EvalExpr(term.Expr, b)
		if err != nil {
			rt.errf("eval: rule %s: %v", tr.rule.Name, err)
			return
		}
		// The planner may run an assignment after an atom that binds the
		// same variable; the assignment then shadows it for later steps.
		old, shadowed := b[term.Var]
		b[term.Var] = v
		rt.joinStep(tr, stepIdx+1, b, inputs, delta, sign)
		if shadowed {
			b[term.Var] = old
		} else {
			delete(b, term.Var)
		}
	case *ndlog.Atom:
		tbl, err := rt.Store.Table(term.Rel)
		if err != nil {
			// Joining against an event relation: no stored state, so
			// this trigger can never produce results.
			return
		}
		var scratch [8]rel.Value
		key := scratch[:0]
		for _, arg := range st.probeArgs {
			switch arg := arg.(type) {
			case *ndlog.ConstArg:
				key = append(key, arg.Val)
			case *ndlog.VarArg:
				key = append(key, b[arg.Name])
			}
		}
		sameRel := term.Rel == delta.Rel
		excludeDelta := sameRel && st.bodyIdx < tr.atomIdx
		tbl.Probe(st.probeCols, key, func(row *rel.Row) {
			// Self-join de-duplication: when the delta's relation
			// appears at an earlier body position, the pairing with
			// the delta itself is counted by that position's trigger.
			if excludeDelta && row.Tuple.Equal(delta) {
				return
			}
			mark := len(rt.trail)
			if !MatchAtom(term, row.Tuple, b, &rt.trail) {
				return
			}
			inputs[st.slot] = row.Tuple
			rt.joinStep(tr, stepIdx+1, b, inputs, delta, sign)
			rt.trail.Undo(b, mark)
		})
	}
}

// emit finishes one join result: either a direct head derivation or an
// aggregate contribution.
func (rt *Runtime) emit(cr *CRule, b Binding, inputs []rel.Tuple, sign int) {
	if cr.Agg != nil {
		rt.aggs[cr.Name].contribute(rt, cr, b, inputs, sign)
		return
	}
	head, err := ProjectHead(cr.Rule.Head, b, rel.Value{})
	if err != nil {
		rt.errf("eval: rule %s: %v", cr.Name, err)
		return
	}
	rt.deliver(cr, head, inputs, sign)
}

// deliver routes a derived head tuple: locally enqueued or sent to the
// node named by its location attribute. The firing hook runs at this
// node in both cases (the rule executed here).
func (rt *Runtime) deliver(cr *CRule, head rel.Tuple, inputs []rel.Tuple, sign int) {
	sch, ok := rt.Store.Catalog().Lookup(head.Rel)
	if !ok {
		rt.errf("eval: rule %s derives undeclared relation %s", cr.Name, head.Rel)
		return
	}
	loc, ok := head.Loc(sch)
	if !ok {
		rt.errf("eval: rule %s: head %s has no address location", cr.Name, head)
		return
	}
	if sign > 0 {
		rt.stats.Firings++
	} else {
		rt.stats.Retractions++
	}
	var f Firing
	if rt.FireFn != nil {
		// The one place a firing's VIDs and RID are hashed: the hook,
		// the queue and the send below all carry them from here.
		f = NewFiring(cr.Name, rt.Addr, inputs, head, loc, sign)
		rt.FireFn(f)
	} else {
		f = Firing{RuleName: cr.Name, Inputs: inputs, Output: head, OutputLoc: loc, Sign: sign}
	}
	if loc == rt.Addr {
		rt.queue = append(rt.queue, Delta{Tuple: f.Output, Sign: sign})
		return
	}
	rt.stats.TuplesSent++
	if rt.SendFn != nil {
		rt.SendFn(loc, Delta{Tuple: f.Output, Sign: sign}, f)
	}
}
