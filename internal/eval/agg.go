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
	spec   *AggSpec
	groups map[uint64]*aggGroup
}

type aggGroup struct {
	headVals []rel.Value // head attribute values; agg position invalid
	contribs map[rel.ID]*contrib
}

type contrib struct {
	id     rel.ID
	val    rel.Value
	inputs []rel.Tuple
	count  int
}

func newAggState(cr *CRule) *aggState {
	return &aggState{spec: cr.Agg, groups: map[uint64]*aggGroup{}}
}

// groupProject evaluates the non-aggregate head attributes.
func groupProject(head *ndlog.Atom, b Binding, aggIdx int) ([]rel.Value, error) {
	vals := make([]rel.Value, len(head.Args))
	for i, arg := range head.Args {
		if i == aggIdx {
			continue
		}
		switch arg := arg.(type) {
		case *ndlog.ConstArg:
			vals[i] = arg.Val
		case *ndlog.VarArg:
			v, ok := b[arg.Name]
			if !ok {
				return nil, fmt.Errorf("eval: aggregate head variable %s unbound", arg.Name)
			}
			vals[i] = v
		default:
			return nil, fmt.Errorf("eval: bad aggregate head argument %T", arg)
		}
	}
	return vals, nil
}

func groupKey(vals []rel.Value, aggIdx int) uint64 {
	var scratch [256]byte
	b := scratch[:0]
	for i, v := range vals {
		if i == aggIdx {
			continue
		}
		b = rel.AppendValue(b, v)
	}
	return rel.HashBytes(b).Hash64()
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
	// derivs holds one input list per alternative derivation, in a
	// deterministic order.
	derivs [][]rel.Tuple
}

func (g *aggGroup) sortedContribs() []*contrib {
	out := make([]*contrib, 0, len(g.contribs))
	for _, c := range g.contribs {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *contrib) int { return a.id.Compare(b.id) })
	return out
}

// output computes the group's current head tuple and derivations.
func (s *aggState) output(g *aggGroup, headRel string, aggIdx int) (headOutput, error) {
	if len(g.contribs) == 0 {
		return headOutput{}, nil
	}
	cs := g.sortedContribs()
	var aggVal rel.Value
	var derivs [][]rel.Tuple
	switch s.spec.Func {
	case "min", "max":
		best := cs[0].val
		for _, c := range cs[1:] {
			cmp := c.val.Compare(best)
			if (s.spec.Func == "min" && cmp < 0) || (s.spec.Func == "max" && cmp > 0) {
				best = c.val
			}
		}
		aggVal = best
		for _, c := range cs {
			if c.val.Equal(best) {
				derivs = append(derivs, c.inputs)
			}
		}
	case "count":
		aggVal = rel.Int(int64(len(cs)))
		derivs = [][]rel.Tuple{unionInputs(cs)}
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
		derivs = [][]rel.Tuple{unionInputs(cs)}
	default:
		return headOutput{}, fmt.Errorf("eval: unknown aggregate %s", s.spec.Func)
	}
	vals := make([]rel.Value, len(g.headVals))
	copy(vals, g.headVals)
	vals[aggIdx] = aggVal
	return headOutput{valid: true, tuple: rel.Tuple{Rel: headRel, Vals: vals}, derivs: derivs}, nil
}

func unionInputs(cs []*contrib) []rel.Tuple {
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
	return out
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
	if s.spec.Func != "min" && s.spec.Func != "max" && s.spec.Func != "count" && !val.Numeric() {
		rt.errf("eval: rule %s: aggregate %s over non-numeric value %s", cr.Name, s.spec.Func, val)
		return
	}
	headVals, err := groupProject(cr.Rule.Head, b, s.spec.ArgIdx)
	if err != nil {
		rt.errf("eval: rule %s: %v", cr.Name, err)
		return
	}
	gk := groupKey(headVals, s.spec.ArgIdx)
	g, ok := s.groups[gk]
	if !ok {
		g = &aggGroup{headVals: headVals, contribs: map[rel.ID]*contrib{}}
		s.groups[gk] = g
	}

	before, err := s.output(g, cr.Rule.Head.Rel, s.spec.ArgIdx)
	if err != nil {
		rt.errf("%v", err)
		return
	}

	cid := contribID(val, inputs)
	if sign > 0 {
		if c, ok := g.contribs[cid]; ok {
			c.count++
		} else {
			g.contribs[cid] = &contrib{id: cid, val: val, inputs: inputs, count: 1}
		}
	} else {
		c, ok := g.contribs[cid]
		if !ok {
			rt.errf("eval: rule %s: retraction of unknown aggregate contribution", cr.Name)
			return
		}
		c.count--
		if c.count <= 0 {
			delete(g.contribs, cid)
		}
	}

	after, err := s.output(g, cr.Rule.Head.Rel, s.spec.ArgIdx)
	if err != nil {
		rt.errf("%v", err)
		return
	}
	if len(g.contribs) == 0 {
		delete(s.groups, gk)
	}
	s.emitDiff(rt, cr, before, after)
}

// emitDiff retracts derivations no longer supported and asserts new
// ones. Retractions run first so downstream state replaces atomically.
func (s *aggState) emitDiff(rt *Runtime, cr *CRule, before, after headOutput) {
	sameTuple := before.valid && after.valid && before.tuple.Equal(after.tuple)
	oldSet := map[rel.ID][]rel.Tuple{}
	newSet := map[rel.ID][]rel.Tuple{}
	if before.valid {
		for _, d := range before.derivs {
			oldSet[derivKey(d)] = d
		}
	}
	if after.valid {
		for _, d := range after.derivs {
			newSet[derivKey(d)] = d
		}
	}
	var removed, added []rel.ID
	for k := range oldSet {
		if !sameTuple {
			removed = append(removed, k)
			continue
		}
		if _, ok := newSet[k]; !ok {
			removed = append(removed, k)
		}
	}
	for k := range newSet {
		if !sameTuple {
			added = append(added, k)
			continue
		}
		if _, ok := oldSet[k]; !ok {
			added = append(added, k)
		}
	}
	if sameTuple && len(removed) == 0 && len(added) == 0 {
		return
	}
	slices.SortFunc(removed, rel.ID.Compare)
	slices.SortFunc(added, rel.ID.Compare)
	for _, k := range removed {
		rt.deliver(cr, before.tuple, oldSet[k], -1)
	}
	for _, k := range added {
		rt.deliver(cr, after.tuple, newSet[k], 1)
	}
}
