package eval

import (
	"fmt"
	"slices"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// Incremental aggregate maintenance. Join results for a rule with an
// aggregate head are "contributions" collected per group (the non-
// aggregate head attributes). Changes to a group recompute its output
// and emit head-level deltas.
//
// Provenance semantics:
//   - min/max: every contribution achieving the extremum is one
//     alternative derivation of the head tuple (rule execution with
//     that contribution's inputs). This matches "number of alternative
//     derivations" queries in ExSPAN.
//   - count/sum/avg: the head tuple has a single derivation whose
//     inputs are the union of all contributing tuples (the value
//     depends on the whole group).
type aggState struct {
	spec *AggSpec
	// extremum: min or max. Such a group keeps its contributions ordered
	// by (value, id), so its best ones are one run at an end of the order.
	extremum bool
	groups   map[uint64]*aggGroup
}

type aggGroup struct {
	headVals []rel.Value // head attribute values; agg position invalid
	// contribs is ordered by (value, id) for min/max and by id otherwise
	// (the order a sum adds in).
	contribs []*contrib
	// out is the group's current output, as last emitted.
	out headOutput
}

type contrib struct {
	id     rel.ID
	val    rel.Value
	inputs []rel.Tuple
	count  int
}

func newAggState(cr *CRule) *aggState {
	return &aggState{spec: cr.Agg, extremum: cr.Agg.Func == "min" || cr.Agg.Func == "max",
		groups: map[uint64]*aggGroup{}}
}

// groupArg evaluates one non-aggregate head attribute.
func groupArg(arg ndlog.Arg, b Binding) (rel.Value, error) {
	switch arg := arg.(type) {
	case *ndlog.ConstArg:
		return arg.Val, nil
	case *ndlog.VarArg:
		v, ok := b[arg.Name]
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: aggregate head variable %s unbound", arg.Name)
		}
		return v, nil
	}
	return rel.Value{}, fmt.Errorf("eval: bad aggregate head argument %T", arg)
}

// groupProject evaluates the non-aggregate head attributes.
func groupProject(head *ndlog.Atom, b Binding, aggIdx int) ([]rel.Value, error) {
	vals := make([]rel.Value, len(head.Args))
	for i, arg := range head.Args {
		if i == aggIdx {
			continue
		}
		v, err := groupArg(arg, b)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// groupKey hashes the non-aggregate head attributes straight from the
// binding, so finding an existing group allocates nothing.
func groupKey(head *ndlog.Atom, b Binding, aggIdx int) (uint64, error) {
	var scratch [256]byte
	buf := scratch[:0]
	for i, arg := range head.Args {
		if i == aggIdx {
			continue
		}
		v, err := groupArg(arg, b)
		if err != nil {
			return 0, err
		}
		buf = rel.AppendValue(buf, v)
	}
	return rel.HashBytes(buf).Hash64(), nil
}

// contribID identifies one contribution: rel.HashParts over (encoded
// value, input VID...), framed into a stack buffer.
func contribID(val rel.Value, inputs []rel.Tuple) rel.ID {
	var scratch, enc [256]byte
	b := rel.AppendPart(scratch[:0], rel.AppendValue(enc[:0], val))
	return rel.HashBytes(appendInputVIDs(b, inputs))
}

// derivKey identifies one derivation's input list: rel.HashParts over
// the input VIDs.
func derivKey(inputs []rel.Tuple) rel.ID {
	var scratch [256]byte
	return rel.HashBytes(appendInputVIDs(scratch[:0], inputs))
}

// appendInputVIDs frames each input's VID as one HashParts part. Inputs
// come out of tables or deltas, so they carry the VID already.
func appendInputVIDs(b []byte, inputs []rel.Tuple) []byte {
	for _, t := range inputs {
		vid := t.VID()
		b = rel.AppendPart(b, vid[:])
	}
	return b
}

// headOutput is the aggregate output of a group: the head tuple plus the
// set of derivations (firing input lists) supporting it.
type headOutput struct {
	valid bool
	tuple rel.Tuple
	// derivs holds one input list per alternative derivation, ascending
	// by derivKey: the order emitDiff retracts and asserts them in.
	derivs []deriv
}

type deriv struct {
	key    rel.ID
	inputs []rel.Tuple
}

// find returns where a contribution with value val and id belongs in
// the group's order, and whether it is there.
func (s *aggState) find(g *aggGroup, val rel.Value, id rel.ID) (int, bool) {
	return slices.BinarySearchFunc(g.contribs, id, func(c *contrib, id rel.ID) int {
		if s.extremum {
			if cmp := c.val.Compare(val); cmp != 0 {
				return cmp
			}
		}
		return c.id.Compare(id)
	})
}

// bestRun returns the group's best contributions for min/max: the first
// (min) or last (max) run of equal values, in id order. Its first member
// carries the output value.
func (s *aggState) bestRun(g *aggGroup) []*contrib {
	cs := g.contribs
	if s.spec.Func == "min" {
		n := 1
		for n < len(cs) && cs[n].val.Equal(cs[0].val) {
			n++
		}
		return cs[:n]
	}
	i := len(cs) - 1
	for i > 0 && cs[i-1].val.Equal(cs[len(cs)-1].val) {
		i--
	}
	return cs[i:]
}

// output computes the group's current head tuple and derivations.
func (s *aggState) output(g *aggGroup, headRel string, aggIdx int) (headOutput, error) {
	cs := g.contribs
	if len(cs) == 0 {
		return headOutput{}, nil
	}
	var aggVal rel.Value
	var derivs []deriv
	switch s.spec.Func {
	case "min", "max":
		run := s.bestRun(g)
		aggVal = run[0].val
		derivs = make([]deriv, len(run))
		for i, c := range run {
			derivs[i] = deriv{key: derivKey(c.inputs), inputs: c.inputs}
		}
		slices.SortFunc(derivs, func(a, b deriv) int { return a.key.Compare(b.key) })
	case "count":
		aggVal = rel.Int(int64(len(cs)))
		derivs = unionDeriv(cs)
	case "sum", "avg":
		var sum rel.Value = rel.Int(0)
		for _, c := range cs {
			v, err := rel.Arith("+", sum, c.val)
			if err != nil {
				return headOutput{}, fmt.Errorf("eval: aggregate %s: %v", s.spec.Func, err)
			}
			sum = v
		}
		if s.spec.Func == "avg" {
			f, _ := sum.AsFloat()
			aggVal = rel.Float(f / float64(len(cs)))
		} else {
			aggVal = sum
		}
		derivs = unionDeriv(cs)
	default:
		return headOutput{}, fmt.Errorf("eval: unknown aggregate %s", s.spec.Func)
	}
	vals := make([]rel.Value, len(g.headVals))
	copy(vals, g.headVals)
	vals[aggIdx] = aggVal
	return headOutput{valid: true, tuple: rel.Tuple{Rel: headRel, Vals: vals}, derivs: derivs}, nil
}

// unionDeriv is the single derivation of a count/sum/avg head: every
// contributing tuple once, sorted.
func unionDeriv(cs []*contrib) []deriv {
	seen := map[rel.ID]bool{}
	var out []rel.Tuple
	for _, c := range cs {
		for _, t := range c.inputs {
			vid := t.VID()
			if !seen[vid] {
				seen[vid] = true
				out = append(out, t)
			}
		}
	}
	slices.SortFunc(out, rel.Tuple.Compare)
	return []deriv{{key: derivKey(out), inputs: out}}
}

// contribute applies one signed join result to the aggregate state and
// emits head-level deltas/firings through the runtime.
func (s *aggState) contribute(rt *Runtime, cr *CRule, b Binding, inputs []rel.Tuple, sign int) {
	var val rel.Value
	if s.spec.Var == "" {
		val = rel.Int(1) // count<>: value is irrelevant
	} else {
		v, ok := b[s.spec.Var]
		if !ok {
			rt.errf("eval: rule %s: aggregate variable %s unbound", cr.Name, s.spec.Var)
			return
		}
		val = v
	}
	if !s.extremum && s.spec.Func != "count" && !val.Numeric() {
		rt.errf("eval: rule %s: aggregate %s over non-numeric value %s", cr.Name, s.spec.Func, val)
		return
	}
	gk, err := groupKey(cr.Rule.Head, b, s.spec.ArgIdx)
	if err != nil {
		rt.errf("eval: rule %s: %v", cr.Name, err)
		return
	}
	g, ok := s.groups[gk]
	if !ok {
		if sign < 0 {
			rt.errf("eval: rule %s: retraction of unknown aggregate contribution", cr.Name)
			return
		}
		headVals, err := groupProject(cr.Rule.Head, b, s.spec.ArgIdx)
		if err != nil {
			rt.errf("eval: rule %s: %v", cr.Name, err)
			return
		}
		g = &aggGroup{headVals: headVals}
		s.groups[gk] = g
	}

	// The output depends on which contributions are present, not on how
	// many times each was made: a count bump changes nothing.
	cid := contribID(val, inputs)
	pos, found := s.find(g, val, cid)
	var c *contrib
	if sign > 0 {
		if found {
			g.contribs[pos].count++
			return
		}
		c = &contrib{id: cid, val: val, inputs: inputs, count: 1}
		g.contribs = slices.Insert(g.contribs, pos, c)
	} else {
		if !found {
			rt.errf("eval: rule %s: retraction of unknown aggregate contribution", cr.Name)
			return
		}
		c = g.contribs[pos]
		if c.count--; c.count > 0 {
			return
		}
		g.contribs = slices.Delete(g.contribs, pos, pos+1)
	}
	if s.extremum && len(g.contribs) > 0 && !s.inBestRun(g, c) {
		return // the best run neither gained nor lost a member
	}

	after, err := s.output(g, cr.Rule.Head.Rel, s.spec.ArgIdx)
	if err != nil {
		rt.errf("%v", err)
		return
	}
	before := g.out
	g.out = after
	if len(g.contribs) == 0 {
		delete(s.groups, gk)
	}
	s.emitDiff(rt, cr, before, after)
}

// inBestRun reports whether contribution c, just added to or removed
// from a non-empty min/max group, belongs (or belonged) to its best run:
// whether its value ties or beats the best value the group has now.
func (s *aggState) inBestRun(g *aggGroup, c *contrib) bool {
	if s.spec.Func == "min" {
		return c.val.Compare(g.contribs[0].val) <= 0
	}
	return c.val.Compare(g.contribs[len(g.contribs)-1].val) >= 0
}

// emitDiff retracts derivations no longer supported and asserts new
// ones, each side ascending by derivKey. Retractions run first so
// downstream state replaces atomically.
func (s *aggState) emitDiff(rt *Runtime, cr *CRule, before, after headOutput) {
	if !before.valid || !after.valid || !before.tuple.Equal(after.tuple) {
		for _, d := range before.derivs {
			rt.deliver(cr, before.tuple, d.inputs, -1)
		}
		for _, d := range after.derivs {
			rt.deliver(cr, after.tuple, d.inputs, 1)
		}
		return
	}
	// Same head tuple: retract what only before has, then assert what
	// only after has, each found by merging the two key-ordered lists.
	each := func(from, other []deriv, fn func(deriv)) {
		j := 0
		for _, d := range from {
			for j < len(other) && other[j].key.Compare(d.key) < 0 {
				j++
			}
			if j == len(other) || other[j].key != d.key {
				fn(d)
			}
		}
	}
	each(before.derivs, after.derivs, func(d deriv) { rt.deliver(cr, before.tuple, d.inputs, -1) })
	each(after.derivs, before.derivs, func(d deriv) { rt.deliver(cr, after.tuple, d.inputs, 1) })
}
