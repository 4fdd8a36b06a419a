package eval

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// Differential testing: a naive evaluator recomputes the program's
// fixpoint from scratch over the current base tuples (set semantics,
// stratified aggregate recomputation). The incremental runtime must
// agree with it after every random insertion/deletion. This is the
// strongest correctness check on counting-based maintenance.

// naiveEval computes the visible tuples of every persistent relation
// from the base set. Aggregates are recomputed between saturation
// rounds until a global fixpoint.
func naiveEval(t *testing.T, c *Compiled, base []rel.Tuple) map[rel.ID]rel.Tuple {
	t.Helper()
	visible := map[rel.ID]rel.Tuple{}
	for _, b := range base {
		visible[b.VID()] = b
	}
	byRel := func() map[string][]rel.Tuple {
		m := map[string][]rel.Tuple{}
		for _, tp := range visible {
			m[tp.Rel] = append(m[tp.Rel], tp)
		}
		return m
	}
	for round := 0; ; round++ {
		if round > 1000 {
			t.Fatal("naive evaluator did not converge")
		}
		changed := false
		// Saturate non-aggregate rules.
		for {
			inner := false
			rels := byRel()
			for _, cr := range c.Rules {
				if cr.Agg != nil {
					continue
				}
				for _, out := range naiveFireRule(t, cr, rels) {
					vid := out.VID()
					if _, ok := visible[vid]; !ok {
						visible[vid] = out
						inner = true
						changed = true
					}
				}
			}
			if !inner {
				break
			}
		}
		// Recompute aggregates from scratch: remove old agg outputs,
		// group current join results, insert fresh outputs.
		aggChanged := false
		for _, cr := range c.Rules {
			if cr.Agg == nil {
				continue
			}
			headRel := cr.Rule.Head.Rel
			old := map[rel.ID]rel.Tuple{}
			for vid, tp := range visible {
				if tp.Rel == headRel {
					old[vid] = tp
				}
			}
			rels := byRel()
			groups := map[uint64][]rel.Value{}   // group key -> agg values
			headVals := map[uint64][]rel.Value{} // group key -> head template
			for _, res := range naiveJoinResults(t, cr, rels) {
				gv, err := groupProject(cr.Rule.Head, res, cr.Agg.ArgIdx)
				if err != nil {
					t.Fatal(err)
				}
				gk, err := groupKey(cr.Rule.Head, res, cr.Agg.ArgIdx)
				if err != nil {
					t.Fatal(err)
				}
				var v rel.Value
				if cr.Agg.Var == "" {
					v = rel.Int(1)
				} else {
					v = res[cr.Agg.Var]
				}
				groups[gk] = append(groups[gk], v)
				headVals[gk] = gv
			}
			next := map[rel.ID]rel.Tuple{}
			for gk, vals := range groups {
				var aggVal rel.Value
				switch cr.Agg.Func {
				case "min":
					aggVal = vals[0]
					for _, v := range vals[1:] {
						if v.Compare(aggVal) < 0 {
							aggVal = v
						}
					}
				case "max":
					aggVal = vals[0]
					for _, v := range vals[1:] {
						if v.Compare(aggVal) > 0 {
							aggVal = v
						}
					}
				case "count":
					aggVal = rel.Int(int64(len(vals)))
				case "sum":
					sum := rel.Value(rel.Int(0))
					for _, v := range vals {
						sum, _ = rel.Arith("+", sum, v)
					}
					aggVal = sum
				default:
					t.Fatalf("naive: aggregate %s not supported", cr.Agg.Func)
				}
				hv := append([]rel.Value(nil), headVals[gk]...)
				hv[cr.Agg.ArgIdx] = aggVal
				out := rel.Tuple{Rel: headRel, Vals: hv}
				next[out.VID()] = out
			}
			same := len(next) == len(old)
			if same {
				for vid := range next {
					if _, ok := old[vid]; !ok {
						same = false
						break
					}
				}
			}
			if !same {
				aggChanged = true
				for vid := range old {
					delete(visible, vid)
				}
				for vid, tp := range next {
					visible[vid] = tp
				}
			}
		}
		if aggChanged {
			// Non-agg derivations that depended on removed agg tuples
			// must be recomputed: restart from base + agg outputs.
			kept := map[rel.ID]rel.Tuple{}
			for _, b := range base {
				kept[b.VID()] = b
			}
			for vid, tp := range visible {
				for _, cr := range c.Rules {
					if cr.Agg != nil && cr.Rule.Head.Rel == tp.Rel {
						kept[vid] = tp
					}
				}
			}
			visible = kept
			changed = true
		}
		if !changed {
			return visible
		}
	}
}

// naiveFireRule returns all head tuples derivable in one step.
func naiveFireRule(t *testing.T, cr *CRule, rels map[string][]rel.Tuple) []rel.Tuple {
	var out []rel.Tuple
	for _, b := range naiveJoinResults(t, cr, rels) {
		head, err := ProjectHead(cr.Rule.Head, b, rel.Value{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, head)
	}
	return out
}

// naiveJoinResults enumerates complete bindings of the rule body. It
// copies the binding per candidate rather than undoing in place: the
// reference stays independent of the runtime's trail.
func naiveJoinResults(t *testing.T, cr *CRule, rels map[string][]rel.Tuple) []Binding {
	var results []Binding
	var walk func(i int, b Binding)
	walk = func(i int, b Binding) {
		if i == len(cr.Rule.Body) {
			results = append(results, maps.Clone(b))
			return
		}
		switch term := cr.Rule.Body[i].(type) {
		case *ndlog.Atom:
			for _, tp := range rels[term.Rel] {
				nb := maps.Clone(b)
				var trail Trail
				if MatchAtom(term, tp, nb, &trail) {
					walk(i+1, nb)
				}
			}
		case *ndlog.Cond:
			ok, err := EvalCond(term, b)
			if err != nil {
				return // failed bindings are skipped, like the runtime
			}
			if ok {
				walk(i+1, b)
			}
		case *ndlog.Assign:
			v, err := EvalExpr(term.Expr, b)
			if err != nil {
				return
			}
			nb := maps.Clone(b)
			nb[term.Var] = v
			walk(i+1, nb)
		}
	}
	walk(0, Binding{})
	return results
}

// Single-node programs for differential testing (bodies share @N so no
// localization is needed).
const reachProgram = `
materialize(edge, infinity, infinity, keys(1,2,3)).
materialize(reach, infinity, infinity, keys(1,2,3)).
r1 reach(@N,X,Y) :- edge(@N,X,Y).
r2 reach(@N,X,Z) :- edge(@N,X,Y), reach(@N,Y,Z).
`

const shortestProgram = `
materialize(edge, infinity, infinity, keys(1,2,3,4)).
materialize(dist, infinity, infinity, keys(1,2,3,4)).
materialize(best, infinity, infinity, keys(1,2,3)).
s1 dist(@N,X,Y,C) :- edge(@N,X,Y,C).
s2 dist(@N,X,Z,C) :- edge(@N,X,Y,C1), best(@N,Y,Z,C2), X != Z, C := C1 + C2, C < 32.
s3 best(@N,X,Y,min<C>) :- dist(@N,X,Y,C).
`

const countProgram = `
materialize(edge, infinity, infinity, keys(1,2,3)).
materialize(outdeg, infinity, infinity, keys(1,2)).
c1 outdeg(@N,X,count<>) :- edge(@N,X,_).
`

func compileFor(t *testing.T, src string) *Compiled {
	t.Helper()
	prog, err := ndlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runDifferential drives random insert/delete streams and compares
// incremental state against the naive fixpoint after every operation.
func runDifferential(t *testing.T, src string, mkTuple func(r *rand.Rand) rel.Tuple, steps int) func(seed int64) bool {
	c := compileFor(t, src)
	return func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rt, err := NewRuntime("n", c)
		if err != nil {
			t.Fatal(err)
		}
		rt.ErrFn = func(error) {} // e.g. div-by-zero bindings: skipped in both
		var base []rel.Tuple
		for step := 0; step < steps; step++ {
			if len(base) > 0 && r.Intn(3) == 0 {
				i := r.Intn(len(base))
				tp := base[i]
				base = append(base[:i], base[i+1:]...)
				if err := rt.DeleteBase(tp); err != nil {
					t.Fatal(err)
				}
			} else {
				tp := mkTuple(r)
				// Base multiset: skip duplicates to keep set semantics
				// aligned with the naive evaluator.
				dup := false
				for _, b := range base {
					if b.Equal(tp) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				base = append(base, tp)
				if err := rt.InsertBase(tp); err != nil {
					t.Fatal(err)
				}
			}
			if step%2 == 1 && step != steps-1 {
				continue // full naive fixpoints are expensive; check every other step
			}
			want := naiveEval(t, c, base)
			got := map[rel.ID]rel.Tuple{}
			for _, name := range rt.Store.TableNames() {
				tbl, err := rt.Store.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range tbl.Tuples() {
					got[tp.VID()] = tp
				}
			}
			if len(got) != len(want) {
				reportDiff(t, seed, step, got, want)
				return false
			}
			for vid := range want {
				if _, ok := got[vid]; !ok {
					reportDiff(t, seed, step, got, want)
					return false
				}
			}
		}
		return true
	}
}

func reportDiff(t *testing.T, seed int64, step int, got, want map[rel.ID]rel.Tuple) {
	t.Helper()
	msg := fmt.Sprintf("seed %d step %d:\n", seed, step)
	for vid, tp := range want {
		if _, ok := got[vid]; !ok {
			msg += fmt.Sprintf("  missing %s\n", tp)
		}
	}
	for vid, tp := range got {
		if _, ok := want[vid]; !ok {
			msg += fmt.Sprintf("  extra   %s\n", tp)
		}
	}
	t.Log(msg)
}

func TestDifferentialReachabilityDAG(t *testing.T) {
	// Edges only run from lower to higher vertex ids, so the derivation
	// graph is acyclic and counting-based deletion is exact (see
	// TestCountingLimitationCyclicReachability for the cyclic case).
	mk := func(r *rand.Rand) rel.Tuple {
		i := r.Intn(5)
		j := i + 1 + r.Intn(5-i)
		return rel.NewTuple("edge", rel.Addr("n"),
			rel.Str(fmt.Sprintf("v%d", i)),
			rel.Str(fmt.Sprintf("v%d", j)))
	}
	f := runDifferential(t, reachProgram, mk, 30)
	for seed := int64(1); seed <= 25; seed++ {
		if !f(seed) {
			t.Fatalf("diverged at seed %d", seed)
		}
	}
}

// TestCountingLimitationCyclicReachability documents the known
// limitation of counting-based maintenance (the DRed motivation):
// un-damped recursion over a graph CYCLE can leave mutually-supporting
// derivations alive after their base support is deleted. The runtime
// over-approximates (never under-approximates) in that case, and
// rewrite.DeletionSafety flags such programs at compile time. All demo
// protocols are in the safe (derivation-height-monotone) class.
func TestCountingLimitationCyclicReachability(t *testing.T) {
	c := compileFor(t, reachProgram)
	rt, err := NewRuntime("n", c)
	if err != nil {
		t.Fatal(err)
	}
	rt.ErrFn = func(err error) { t.Fatal(err) }
	edge := func(a, b string) rel.Tuple {
		return rel.NewTuple("edge", rel.Addr("n"), rel.Str(a), rel.Str(b))
	}
	// Build a 2-cycle plus an exit edge, then delete the exit's source
	// support.
	base := []rel.Tuple{edge("a", "b"), edge("b", "a"), edge("b", "c")}
	for _, tp := range base {
		if err := rt.InsertBase(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.DeleteBase(edge("b", "c")); err != nil {
		t.Fatal(err)
	}
	base = base[:2]
	want := naiveEval(t, c, base)
	tbl, err := rt.Store.Table("reach")
	if err != nil {
		t.Fatal(err)
	}
	got := map[rel.ID]bool{}
	for _, tp := range tbl.Tuples() {
		got[tp.VID()] = true
	}
	// Soundness direction that must always hold: everything naive
	// derives is present (no under-deletion).
	for vid, tp := range want {
		if tp.Rel == "reach" && !got[vid] {
			t.Fatalf("under-approximation: missing %s", tp)
		}
	}
	// The over-approximation is expected here: reach(a,c)/reach(b,c)
	// survive through the a<->b cycle. If this ever starts failing
	// because the extras vanished, a DRed-style deletion landed and
	// this test plus DeletionSafety should be updated together.
	extras := 0
	for _, tp := range tbl.Tuples() {
		if _, ok := want[tp.VID()]; !ok {
			extras++
		}
	}
	if extras == 0 {
		t.Fatal("expected documented over-approximation on cyclic data; did deletion semantics change?")
	}
}

func TestDifferentialShortestPath(t *testing.T) {
	mk := func(r *rand.Rand) rel.Tuple {
		return rel.NewTuple("edge", rel.Addr("n"),
			rel.Str(fmt.Sprintf("v%d", r.Intn(4))),
			rel.Str(fmt.Sprintf("v%d", r.Intn(4))),
			rel.Int(int64(1+r.Intn(4))))
	}
	f := runDifferential(t, shortestProgram, mk, 16)
	for seed := int64(1); seed <= 10; seed++ {
		if !f(seed) {
			t.Fatalf("diverged at seed %d", seed)
		}
	}
}

func TestDifferentialCount(t *testing.T) {
	mk := func(r *rand.Rand) rel.Tuple {
		return rel.NewTuple("edge", rel.Addr("n"),
			rel.Str(fmt.Sprintf("v%d", r.Intn(4))),
			rel.Str(fmt.Sprintf("v%d", r.Intn(6))))
	}
	f := runDifferential(t, countProgram, mk, 40)
	for seed := int64(1); seed <= 20; seed++ {
		if !f(seed) {
			t.Fatalf("diverged at seed %d", seed)
		}
	}
}

// TestDifferentialAggregateTies drives min, max, count<> and sum over a
// three-value cost domain, so most contributions tie, with seeded
// scripts that retract the current extremum and that add and retract
// extra copies of a live contribution (a second derivation of the same
// join result, made through the aggregate directly: set-semantics base
// tuples never produce one). After every step the head tuples must
// equal the naive recompute, and each head's live derivations, netted
// from FireFn, must be exactly the naive ones: for min/max one per
// contribution achieving the extremum, for count/sum one over the
// sorted union of the group's inputs.
func TestDifferentialAggregateTies(t *testing.T) {
	for _, agg := range []struct{ fn, arg string }{{"min", "min<C>"}, {"max", "max<C>"}, {"count", "count<>"}, {"sum", "sum<C>"}} {
		t.Run(agg.fn, func(t *testing.T) {
			src := fmt.Sprintf(`
materialize(edge, infinity, infinity, keys(1,2,3,4)).
materialize(agg, infinity, infinity, keys(1,2)).
a1 agg(@N,X,%s) :- edge(@N,X,Y,C).
`, agg.arg)
			c := compileFor(t, src)
			extremum := agg.fn == "min" || agg.fn == "max"
			var extremaRetracted, copiesRetracted int
			for seed := int64(1); seed <= 12; seed++ {
				e, d := runAggregateTies(t, c, agg.fn, seed)
				extremaRetracted += e
				copiesRetracted += d
			}
			if extremum && extremaRetracted == 0 {
				t.Fatal("no script retracted a group's current extremum")
			}
			if copiesRetracted == 0 {
				t.Fatal("no script retracted one copy of a duplicated contribution")
			}
		})
	}
}

func runAggregateTies(t *testing.T, c *Compiled, fn string, seed int64) (extremaRetracted, copiesRetracted int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rt, err := NewRuntime("n", c)
	if err != nil {
		t.Fatal(err)
	}
	rt.ErrFn = func(err error) { t.Fatalf("seed %d: %v", seed, err) }
	// live derivations per head VID, netted from FireFn: input VIDs -> count
	derivs := map[rel.ID]map[string]int{}
	rt.FireFn = func(f Firing) {
		m := derivs[f.Output.VID()]
		if m == nil {
			m = map[string]int{}
			derivs[f.Output.VID()] = m
		}
		k := inputsKey(f.Inputs)
		if m[k] += f.Sign; m[k] == 0 {
			delete(m, k)
		}
		if len(m) == 0 {
			delete(derivs, f.Output.VID())
		}
	}
	st, cr := rt.aggs["a1"], c.Rules[0]
	// copies counts the extra contributions of a live edge made through
	// the aggregate directly; they are retracted before the edge is.
	copies := map[rel.ID]int{}
	contribute := func(tp rel.Tuple, sign int) {
		b := Binding{"N": tp.Vals[0], "X": tp.Vals[1], "Y": tp.Vals[2], "C": tp.Vals[3]}
		st.contribute(rt, cr, b, []rel.Tuple{tp.Identified()}, sign)
		rt.Flush()
		copies[tp.VID()] += sign
	}
	var base []rel.Tuple
	remove := func(i int) {
		tp := base[i]
		for copies[tp.VID()] > 0 {
			contribute(tp, -1)
			copiesRetracted++
		}
		base = append(base[:i], base[i+1:]...)
		if err := rt.DeleteBase(tp); err != nil {
			t.Fatal(err)
		}
	}
	cost := func(tp rel.Tuple) int64 { v, _ := tp.Vals[3].AsInt(); return v }
	for step := 0; step < 60; step++ {
		switch op := r.Intn(6); {
		case op <= 1 || len(base) == 0:
			tp := rel.NewTuple("edge", rel.Addr("n"),
				rel.Str(fmt.Sprintf("x%d", r.Intn(2))),
				rel.Str(fmt.Sprintf("y%d", r.Intn(5))),
				rel.Int(int64(1+r.Intn(3))))
			if slices.ContainsFunc(base, tp.Equal) {
				continue
			}
			base = append(base, tp)
			if err := rt.InsertBase(tp); err != nil {
				t.Fatal(err)
			}
		case op == 2:
			// Retract the current extremum of a random edge's group.
			x := base[r.Intn(len(base))].Vals[1]
			best := -1
			for i, tp := range base {
				if !tp.Vals[1].Equal(x) {
					continue
				}
				if best < 0 || (fn == "min" && cost(tp) < cost(base[best])) || (fn == "max" && cost(tp) > cost(base[best])) {
					best = i
				}
			}
			remove(best)
			extremaRetracted++
		case op == 3:
			remove(r.Intn(len(base)))
		case op == 4:
			contribute(base[r.Intn(len(base))], 1)
		default:
			for _, tp := range base {
				if copies[tp.VID()] > 0 {
					contribute(tp, -1)
					copiesRetracted++
					break
				}
			}
		}
		checkAggregateTies(t, c, fn, base, rt, derivs, seed, step)
	}
	return extremaRetracted, copiesRetracted
}

// checkAggregateTies compares the runtime's head tuples with the naive
// fixpoint and its netted derivations with the groups' naive ones.
func checkAggregateTies(t *testing.T, c *Compiled, fn string, base []rel.Tuple, rt *Runtime, derivs map[rel.ID]map[string]int, seed int64, step int) {
	t.Helper()
	want := naiveEval(t, c, base)
	got := map[rel.ID]rel.Tuple{}
	for _, tp := range mustTuples(t, rt, "agg") {
		got[tp.VID()] = tp
	}
	for _, tp := range base {
		got[tp.VID()] = tp
	}
	if len(got) != len(want) {
		reportDiff(t, seed, step, got, want)
		t.FailNow()
	}
	for vid := range want {
		if _, ok := got[vid]; !ok {
			reportDiff(t, seed, step, got, want)
			t.FailNow()
		}
	}
	groups := map[string][]rel.Tuple{}
	for _, tp := range base {
		x, _ := tp.Vals[1].AsString()
		groups[x] = append(groups[x], tp)
	}
	wantDerivs := map[rel.ID]map[string]int{}
	for vid, head := range want {
		if head.Rel != "agg" {
			continue
		}
		x, _ := head.Vals[1].AsString()
		g := slices.Clone(groups[x])
		m := map[string]int{}
		switch fn {
		case "min", "max":
			for _, tp := range g {
				if tp.Vals[3].Equal(head.Vals[2]) {
					m[inputsKey([]rel.Tuple{tp})] = 1
				}
			}
		default:
			slices.SortFunc(g, rel.Tuple.Compare)
			m[inputsKey(g)] = 1
		}
		wantDerivs[vid] = m
	}
	if !maps.EqualFunc(derivs, wantDerivs, maps.Equal) {
		t.Fatalf("seed %d step %d: live derivations %v, want %v", seed, step, derivs, wantDerivs)
	}
}

// inputsKey names a derivation by its input VIDs, in order.
func inputsKey(inputs []rel.Tuple) string {
	var b strings.Builder
	for _, tp := range inputs {
		b.WriteString(tp.VID().String())
		b.WriteByte(' ')
	}
	return b.String()
}
