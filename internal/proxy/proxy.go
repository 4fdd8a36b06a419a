// Package proxy implements NetTrails' legacy-application integration:
// a per-node interposition layer that observes the messages entering
// and leaving an unmodified ("black box") application, converts them to
// tuples, and applies NDlog "maybe" rules (h ?- b) to infer the causal
// relationships the application does not expose. Matched rules become
// provenance derivations; unmatched outputs are recorded as base
// (origin) tuples — e.g. a BGP speaker originating its own prefix.
//
// The paper's running example is rule br1:
//
//	br1 outputRoute(@AS,R2,Prefix,Route2) ?-
//	      inputRoute(@AS,R1,Prefix,Route1),
//	      f_isExtend(Route2,Route1,AS) == 1.
//
// The proxy also links message transmission across nodes: when an
// observed input arrived from another node's observed output, it
// records a transmission derivation so lineage traversals can continue
// at the sender.
package proxy

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/rel"
)

// TransmitRule is the synthetic rule name used for cross-node message
// transmission edges (receiver's input tuple derived from sender's
// output tuple).
const TransmitRule = "proxy_transmit"

// Proxy observes one legacy application instance at one node.
type Proxy struct {
	addr  string
	rules []*ndlog.Rule
	prov  *provenance.Store

	// inputs: relation -> observed input tuples currently valid.
	inputs map[string][]rel.Tuple
	// outs remembers, per output VID, the stack of observation batches
	// (each batch = the firings recorded for one ObserveOutput call; an
	// empty batch marks an origin/base observation). RetractOutput
	// replays the recorded batch instead of re-matching, because by the
	// time an output is retracted its matching inputs are often already
	// gone (withdrawal cascades run cause-first).
	outs map[rel.ID][][]eval.Firing

	// Matched counts maybe-rule matches; Unmatched counts outputs
	// recorded as origins.
	Matched   int
	Unmatched int

	// OnError observes rule evaluation problems (nil: ignore).
	OnError func(error)
}

// New creates a proxy for the node with the given maybe rules. Non-maybe
// rules in the program are ignored; the rules must be analyzed (use
// ndlog.Analyze on the enclosing program first).
func New(addr string, prog *ndlog.Program, prov *provenance.Store) (*Proxy, error) {
	if prov == nil {
		return nil, fmt.Errorf("proxy: nil provenance store")
	}
	p := &Proxy{
		addr:   addr,
		prov:   prov,
		inputs: map[string][]rel.Tuple{},
		outs:   map[rel.ID][][]eval.Firing{},
	}
	for _, r := range prog.Rules {
		if r.Maybe {
			p.rules = append(p.rules, r)
		}
	}
	if len(p.rules) == 0 {
		return nil, fmt.Errorf("proxy: program has no maybe rules")
	}
	return p, nil
}

// Rules returns the maybe rules in use.
func (p *Proxy) Rules() []*ndlog.Rule { return p.rules }

// ObserveInput records a message entering the black box. When the
// message was produced by another node's observed output, pass the
// sender's address and output tuple as origin; the proxy then records a
// transmission derivation instead of a base entry. senderProv may be
// nil when the sender is outside the observed system (e.g. an external
// trace feed), in which case the input is recorded as a base tuple.
func (p *Proxy) ObserveInput(t rel.Tuple, senderAddr string, senderOutput *rel.Tuple, senderProv *provenance.Store) {
	p.inputs[t.Rel] = append(p.inputs[t.Rel], t)
	if senderOutput == nil || senderProv == nil {
		p.prov.AddBase(t)
		return
	}
	// Transmission edge: exec at the sender over its output tuple;
	// derivation entry at the receiver.
	f := eval.NewFiring(TransmitRule, senderProv.Addr(), []rel.Tuple{*senderOutput}, t, p.addr, 1)
	e := senderProv.RecordFiring(f)
	p.prov.ApplyRemote(f.Output, e, 1)
}

// RetractTransmitted removes an input that carried a transmission edge.
func (p *Proxy) RetractTransmitted(t rel.Tuple, senderAddr string, senderOutput rel.Tuple, senderProv *provenance.Store) {
	p.removeInput(t)
	f := eval.NewFiring(TransmitRule, senderProv.Addr(), []rel.Tuple{senderOutput}, t, p.addr, -1)
	e := senderProv.RecordFiring(f)
	p.prov.ApplyRemote(f.Output, e, -1)
}

func (p *Proxy) removeInput(t rel.Tuple) {
	list := p.inputs[t.Rel]
	for i, x := range list {
		if x.Equal(t) {
			list[i] = list[len(list)-1]
			p.inputs[t.Rel] = list[:len(list)-1]
			return
		}
	}
}

// ObserveOutput records a message leaving the black box. Every maybe
// rule whose head matches the output is evaluated against the observed
// inputs; each satisfied body becomes one derivation of the output
// tuple. If no rule matches, the output is recorded as an origin (base)
// tuple. It returns the number of derivations recorded.
func (p *Proxy) ObserveOutput(t rel.Tuple) int {
	var batch []eval.Firing
	for _, r := range p.rules {
		batch = append(batch, p.matchRule(r, t)...)
	}
	for _, f := range batch {
		p.prov.RecordFiring(f)
	}
	vid := t.VID()
	p.outs[vid] = append(p.outs[vid], batch)
	if len(batch) == 0 {
		p.prov.AddBase(t)
		p.Unmatched++
		return 0
	}
	p.Matched++
	return len(batch)
}

// RetractOutput removes an output's derivations (or its base entry when
// it was an origin), replaying the recorded observation batch.
func (p *Proxy) RetractOutput(t rel.Tuple) {
	vid := t.VID()
	stack := p.outs[vid]
	if len(stack) == 0 {
		// Never observed (or already fully retracted): best effort.
		p.prov.RemoveBase(t)
		return
	}
	batch := stack[len(stack)-1]
	stack = stack[:len(stack)-1]
	if len(stack) == 0 {
		delete(p.outs, vid)
	} else {
		p.outs[vid] = stack
	}
	if len(batch) == 0 {
		p.prov.RemoveBase(t)
		return
	}
	for _, f := range batch {
		f.Sign = -1
		p.prov.RecordFiring(f)
	}
}

// matchRule finds body matches of a maybe rule for the observed output
// tuple and returns one firing per match (not yet recorded).
func (p *Proxy) matchRule(r *ndlog.Rule, out rel.Tuple) []eval.Firing {
	if r.Head.Rel != out.Rel || len(r.Head.Args) != len(out.Vals) {
		return nil
	}
	// Bind head variables from the observed output. The walk binds into
	// the same map and undoes through the trail as it backtracks.
	b := eval.Binding{}
	var trail eval.Trail
	if !eval.MatchAtom(r.Head, out, b, &trail) {
		return nil
	}
	var firings []eval.Firing
	var walk func(terms []ndlog.Term, inputs []rel.Tuple)
	walk = func(terms []ndlog.Term, inputs []rel.Tuple) {
		if len(terms) == 0 {
			firings = append(firings, eval.NewFiring(r.Label, p.prov.Addr(),
				append([]rel.Tuple(nil), inputs...), out, p.addr, 1))
			return
		}
		switch term := terms[0].(type) {
		case *ndlog.Atom:
			for _, in := range p.inputs[term.Rel] {
				mark := len(trail)
				if eval.MatchAtom(term, in, b, &trail) {
					walk(terms[1:], append(inputs, in))
					trail.Undo(b, mark)
				}
			}
		case *ndlog.Cond:
			ok, err := eval.EvalCond(term, b)
			if err != nil {
				if p.OnError != nil {
					p.OnError(fmt.Errorf("proxy: rule %s: %w", r.Label, err))
				}
				return
			}
			if ok {
				walk(terms[1:], inputs)
			}
		case *ndlog.Assign:
			v, err := eval.EvalExpr(term.Expr, b)
			if err != nil {
				if p.OnError != nil {
					p.OnError(fmt.Errorf("proxy: rule %s: %w", r.Label, err))
				}
				return
			}
			// Analysis rejects an assignment to a bound variable, and the
			// walk runs the body in order, so this binds a fresh name.
			b[term.Var] = v
			walk(terms[1:], inputs)
			delete(b, term.Var)
		}
	}
	walk(r.Body, nil)
	return firings
}
