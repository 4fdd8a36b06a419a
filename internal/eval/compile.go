package eval

import (
	"fmt"

	"repro/internal/ndlog"
)

// Compiled is an executable program: analyzed rules lowered to
// delta-triggered join plans. Compilation requires the program to be
// localized already (every rule's body atoms share one location
// variable); the rewrite package guarantees this.
type Compiled struct {
	Analysis *ndlog.Analysis
	Rules    []*CRule
	byRel    map[string][]*trigger
	// IndexRequests lists (relation, columns) hash indexes the join
	// plans will probe; runtimes install them on their tables.
	IndexRequests []IndexRequest
}

// IndexRequest names a hash index needed by some join plan.
type IndexRequest struct {
	Rel  string
	Cols []int
}

// CRule is one compiled rule.
type CRule struct {
	Rule *ndlog.Rule
	Name string   // label, or a synthesized name
	Agg  *AggSpec // non-nil for aggregate heads
	// atoms counts the body atoms: the length of every firing's Inputs.
	atoms int
}

// AggSpec describes a head aggregate.
type AggSpec struct {
	Func   string // min, max, count, sum, avg
	ArgIdx int    // position of the aggregate in the head args
	Var    string // aggregated variable ("" for count<>)
}

// trigger is a delta entry point: when a tuple of the trigger atom's
// relation changes, the plan joins the remaining terms.
type trigger struct {
	rule    *CRule
	atomIdx int         // index in rule.Body of the trigger atom
	slot    int         // the trigger atom's rank among the body atoms
	atom    *ndlog.Atom // the trigger atom itself
	seq     []planStep  // remaining terms in execution order
}

type planStep struct {
	term ndlog.Term
	// For atom steps: original body index (for self-join exclusion), the
	// atom's rank among the body atoms (its slot in a firing's Inputs),
	// and the probe columns that are bound when the step runs.
	bodyIdx   int
	slot      int
	probeCols []int
	// boundVars lists, per probe column, the variable or constant that
	// supplies the probe key.
	probeArgs []ndlog.Arg
}

// Compile lowers an analyzed program. Maybe rules are skipped (they are
// evaluated by the proxy, never by the forward engine).
func Compile(a *ndlog.Analysis) (*Compiled, error) {
	c := &Compiled{Analysis: a, byRel: map[string][]*trigger{}}
	idxSeen := map[string]bool{}
	for i, r := range a.Program.Rules {
		if r.Maybe || len(r.Body) == 0 {
			continue // facts are loaded by the engine, not compiled
		}
		name := r.Label
		if name == "" {
			name = fmt.Sprintf("rule%d_%s", i, r.Head.Rel)
		}
		cr := &CRule{Rule: r, Name: name}
		if err := checkLocalized(r, name); err != nil {
			return nil, err
		}
		if spec, err := aggSpec(r, name); err != nil {
			return nil, err
		} else if spec != nil {
			cr.Agg = spec
		}
		c.Rules = append(c.Rules, cr)
		atoms := bodyAtomIndexes(r)
		cr.atoms = len(atoms)
		for _, ai := range atoms {
			tr, err := planTrigger(cr, ai)
			if err != nil {
				return nil, err
			}
			c.byRel[tr.atom.Rel] = append(c.byRel[tr.atom.Rel], tr)
			for _, st := range tr.seq {
				if a, ok := st.term.(*ndlog.Atom); ok && len(st.probeCols) > 0 {
					key := a.Rel + colsKeyStr(st.probeCols)
					if !idxSeen[key] {
						idxSeen[key] = true
						c.IndexRequests = append(c.IndexRequests, IndexRequest{Rel: a.Rel, Cols: st.probeCols})
					}
				}
			}
		}
	}
	return c, nil
}

func colsKeyStr(cols []int) string {
	b := make([]byte, 0, len(cols)*4)
	for _, c := range cols {
		b = append(b, '/', byte('0'+c/10), byte('0'+c%10))
	}
	return string(b)
}

// TriggersFor returns the triggers fired by deltas of the relation.
func (c *Compiled) TriggersFor(relName string) []*trigger { return c.byRel[relName] }

func bodyAtomIndexes(r *ndlog.Rule) []int {
	var out []int
	for i, t := range r.Body {
		if _, ok := t.(*ndlog.Atom); ok {
			out = append(out, i)
		}
	}
	return out
}

// checkLocalized enforces the post-localization invariant: all body
// atoms share one location variable, and aggregate heads are local.
func checkLocalized(r *ndlog.Rule, name string) error {
	var locVar string
	for _, a := range r.BodyAtoms() {
		lv, ok := a.LocVar()
		if !ok {
			return fmt.Errorf("eval: rule %s: body atom %s has a non-variable location; run localization first", name, a.Rel)
		}
		if locVar == "" {
			locVar = lv
		} else if locVar != lv {
			return fmt.Errorf("eval: rule %s: body spans locations %s and %s; run localization first", name, locVar, lv)
		}
	}
	if r.Head.HasAgg() {
		hv, ok := r.Head.LocVar()
		if !ok || hv != locVar {
			return fmt.Errorf("eval: rule %s: aggregate head must be at the body location %s", name, locVar)
		}
	}
	return nil
}

func aggSpec(r *ndlog.Rule, name string) (*AggSpec, error) {
	for i, arg := range r.Head.Args {
		if g, ok := arg.(*ndlog.AggArg); ok {
			switch g.Func {
			case "min", "max", "count", "sum", "avg":
			default:
				return nil, fmt.Errorf("eval: rule %s: unsupported aggregate %s", name, g.Func)
			}
			return &AggSpec{Func: g.Func, ArgIdx: i, Var: g.Var}, nil
		}
	}
	return nil, nil
}

// planTrigger orders the remaining body terms after the trigger atom.
// Atoms are taken greedily in body order; conditions and assignments run
// as soon as their variables are bound.
func planTrigger(cr *CRule, atomIdx int) (*trigger, error) {
	r := cr.Rule
	tr := &trigger{rule: cr, atomIdx: atomIdx, atom: r.Body[atomIdx].(*ndlog.Atom)}

	bound := map[string]bool{}
	tr.atom.Vars(bound)

	type pending struct {
		term    ndlog.Term
		bodyIdx int
		slot    int
	}
	var rest []pending
	slot := 0 // atoms seen so far
	for i, t := range r.Body {
		p := pending{term: t, bodyIdx: i, slot: slot}
		if _, isAtom := t.(*ndlog.Atom); isAtom {
			slot++
		}
		if i == atomIdx {
			tr.slot = p.slot
			continue
		}
		rest = append(rest, p)
	}

	ready := func(t ndlog.Term) bool {
		switch t := t.(type) {
		case *ndlog.Atom:
			return true
		case *ndlog.Cond:
			vars := map[string]bool{}
			t.Vars(vars)
			for v := range vars {
				if !bound[v] {
					return false
				}
			}
			return true
		case *ndlog.Assign:
			vars := map[string]bool{}
			t.Expr.ExprVars(vars)
			for v := range vars {
				if !bound[v] {
					return false
				}
			}
			return true
		}
		return false
	}

	for len(rest) > 0 {
		pick := -1
		// Prefer ready non-atom terms (cheap filters first), then the
		// first atom in body order.
		for i, p := range rest {
			if _, isAtom := p.term.(*ndlog.Atom); !isAtom && ready(p.term) {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i, p := range rest {
				if _, isAtom := p.term.(*ndlog.Atom); isAtom {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("eval: rule %s: cannot order body terms (unbound condition variables)", cr.Name)
		}
		p := rest[pick]
		rest = append(rest[:pick], rest[pick+1:]...)

		step := planStep{term: p.term, bodyIdx: p.bodyIdx, slot: p.slot}
		switch t := p.term.(type) {
		case *ndlog.Atom:
			for col, arg := range t.Args {
				switch arg := arg.(type) {
				case *ndlog.ConstArg:
					step.probeCols = append(step.probeCols, col)
					step.probeArgs = append(step.probeArgs, arg)
				case *ndlog.VarArg:
					if bound[arg.Name] {
						step.probeCols = append(step.probeCols, col)
						step.probeArgs = append(step.probeArgs, arg)
					}
				}
			}
			t.Vars(bound)
		case *ndlog.Assign:
			bound[t.Var] = true
		}
		tr.seq = append(tr.seq, step)
	}
	return tr, nil
}
