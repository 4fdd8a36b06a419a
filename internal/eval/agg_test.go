package eval

import (
	"testing"

	"repro/internal/rel"
)

const minSrc = `
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(best, infinity, infinity, keys(1,2)).
r1 best(@S,D,min<C>) :- cost(@S,D,C).
`

func costT(s, d string, c int64) rel.Tuple {
	return rel.NewTuple("cost", rel.Addr(s), rel.Addr(d), rel.Int(c))
}

func TestMinAggregateBasics(t *testing.T) {
	rt := newRT(t, "a", minSrc)
	rt.InsertBase(costT("a", "d", 10))
	got := mustTuples(t, rt, "best")
	if len(got) != 1 || got[0].String() != "best(@a, d, 10)" {
		t.Fatalf("best = %v", got)
	}
	// A lower cost replaces the old minimum.
	rt.InsertBase(costT("a", "d", 5))
	got = mustTuples(t, rt, "best")
	if len(got) != 1 || got[0].String() != "best(@a, d, 5)" {
		t.Fatalf("best after lower = %v", got)
	}
	// A higher cost changes nothing.
	rt.InsertBase(costT("a", "d", 7))
	got = mustTuples(t, rt, "best")
	if len(got) != 1 || got[0].String() != "best(@a, d, 5)" {
		t.Fatalf("best after higher = %v", got)
	}
}

func TestMinAggregateDeletionRecovery(t *testing.T) {
	rt := newRT(t, "a", minSrc)
	rt.InsertBase(costT("a", "d", 5))
	rt.InsertBase(costT("a", "d", 10))
	rt.DeleteBase(costT("a", "d", 5))
	got := mustTuples(t, rt, "best")
	if len(got) != 1 || got[0].String() != "best(@a, d, 10)" {
		t.Fatalf("best after deleting min = %v", got)
	}
	rt.DeleteBase(costT("a", "d", 10))
	if got := mustTuples(t, rt, "best"); len(got) != 0 {
		t.Fatalf("best after emptying group = %v", got)
	}
}

func TestMinAggregateAlternativeDerivations(t *testing.T) {
	// Two different cost tuples with the same minimal value: the best
	// tuple has two alternative derivations.
	src := `
materialize(via, infinity, infinity, keys(1,2,3)).
materialize(best, infinity, infinity, keys(1,2)).
r1 best(@S,D,min<C>) :- via(@S,Z,D,C).
`
	rt := newRT(t, "a", src)
	v1 := rel.NewTuple("via", rel.Addr("a"), rel.Addr("x"), rel.Addr("d"), rel.Int(4))
	v2 := rel.NewTuple("via", rel.Addr("a"), rel.Addr("y"), rel.Addr("d"), rel.Int(4))
	rt.InsertBase(v1)
	rt.InsertBase(v2)
	tbl, _ := rt.Store.Table("best")
	best := rel.NewTuple("best", rel.Addr("a"), rel.Addr("d"), rel.Int(4))
	row, ok := tbl.Get(best.VID())
	if !ok || row.Count != 2 {
		t.Fatalf("best row = %+v %v, want 2 derivations", row, ok)
	}
	// Retracting one support keeps the tuple with one derivation.
	rt.DeleteBase(v1)
	if row, ok = tbl.Get(best.VID()); !ok || row.Count != 1 {
		t.Fatalf("best row after one delete = %+v %v", row, ok)
	}
	rt.DeleteBase(v2)
	if _, ok = tbl.Get(best.VID()); ok {
		t.Fatal("best should vanish with last support")
	}
}

func TestMaxAggregate(t *testing.T) {
	src := `
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(worst, infinity, infinity, keys(1,2)).
r1 worst(@S,D,max<C>) :- cost(@S,D,C).
`
	rt := newRT(t, "a", src)
	rt.InsertBase(costT("a", "d", 3))
	rt.InsertBase(costT("a", "d", 9))
	got := mustTuples(t, rt, "worst")
	if len(got) != 1 || got[0].String() != "worst(@a, d, 9)" {
		t.Fatalf("worst = %v", got)
	}
	rt.DeleteBase(costT("a", "d", 9))
	got = mustTuples(t, rt, "worst")
	if len(got) != 1 || got[0].String() != "worst(@a, d, 3)" {
		t.Fatalf("worst after delete = %v", got)
	}
}

func TestCountAggregate(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(degree, infinity, infinity, keys(1)).
r1 degree(@S,count<>) :- link(@S,_,_).
`
	rt := newRT(t, "a", src)
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1)))
	got := mustTuples(t, rt, "degree")
	if len(got) != 1 || got[0].String() != "degree(@a, 1)" {
		t.Fatalf("degree = %v", got)
	}
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("c"), rel.Int(2)))
	got = mustTuples(t, rt, "degree")
	if len(got) != 1 || got[0].String() != "degree(@a, 2)" {
		t.Fatalf("degree after second = %v", got)
	}
	rt.DeleteBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1)))
	got = mustTuples(t, rt, "degree")
	if len(got) != 1 || got[0].String() != "degree(@a, 1)" {
		t.Fatalf("degree after delete = %v", got)
	}
	rt.DeleteBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("c"), rel.Int(2)))
	if got := mustTuples(t, rt, "degree"); len(got) != 0 {
		t.Fatalf("degree after empty = %v", got)
	}
}

func TestSumAndAvgAggregates(t *testing.T) {
	src := `
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(total, infinity, infinity, keys(1,2)).
materialize(mean, infinity, infinity, keys(1,2)).
r1 total(@S,D,sum<C>) :- cost(@S,D,C).
r2 mean(@S,D,avg<C>) :- cost(@S,D,C).
`
	rt := newRT(t, "a", src)
	rt.InsertBase(costT("a", "d", 4))
	rt.InsertBase(costT("a", "d", 8))
	if got := mustTuples(t, rt, "total"); len(got) != 1 || got[0].String() != "total(@a, d, 12)" {
		t.Fatalf("total = %v", got)
	}
	if got := mustTuples(t, rt, "mean"); len(got) != 1 || got[0].String() != "mean(@a, d, 6)" {
		t.Fatalf("mean = %v", got)
	}
	rt.DeleteBase(costT("a", "d", 8))
	if got := mustTuples(t, rt, "total"); len(got) != 1 || got[0].String() != "total(@a, d, 4)" {
		t.Fatalf("total after delete = %v", got)
	}
}

func TestAggregateGroupsAreIndependent(t *testing.T) {
	rt := newRT(t, "a", minSrc)
	rt.InsertBase(costT("a", "d", 5))
	rt.InsertBase(costT("a", "e", 7))
	got := mustTuples(t, rt, "best")
	if len(got) != 2 {
		t.Fatalf("best = %v", got)
	}
	rt.DeleteBase(costT("a", "d", 5))
	got = mustTuples(t, rt, "best")
	if len(got) != 1 || got[0].String() != "best(@a, e, 7)" {
		t.Fatalf("best = %v", got)
	}
}

func TestAggregateChainsIntoDownstreamRule(t *testing.T) {
	src := `
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(best, infinity, infinity, keys(1,2)).
materialize(cheapdst, infinity, infinity, keys(1,2)).
r1 best(@S,D,min<C>) :- cost(@S,D,C).
r2 cheapdst(@S,D) :- best(@S,D,C), C < 10.
`
	rt := newRT(t, "a", src)
	rt.InsertBase(costT("a", "d", 20))
	if got := mustTuples(t, rt, "cheapdst"); len(got) != 0 {
		t.Fatalf("cheapdst = %v", got)
	}
	rt.InsertBase(costT("a", "d", 3))
	if got := mustTuples(t, rt, "cheapdst"); len(got) != 1 {
		t.Fatalf("cheapdst after min drop = %v", got)
	}
	rt.DeleteBase(costT("a", "d", 3))
	// Min reverts to 20 >= 10, downstream tuple must retract.
	if got := mustTuples(t, rt, "cheapdst"); len(got) != 0 {
		t.Fatalf("cheapdst after revert = %v", got)
	}
}

func TestAggregateFiringProvenanceMinSupports(t *testing.T) {
	rt := newRT(t, "a", minSrc)
	var firings []Firing
	rt.FireFn = func(f Firing) { firings = append(firings, f) }
	rt.InsertBase(costT("a", "d", 10))
	rt.InsertBase(costT("a", "d", 5))
	// Expected: +1 (10), then -1 (10) and +1 (5).
	if len(firings) != 3 {
		t.Fatalf("firings = %d: %v", len(firings), firings)
	}
	if firings[0].Sign != 1 || firings[1].Sign != -1 || firings[2].Sign != 1 {
		t.Fatalf("signs = %v %v %v", firings[0].Sign, firings[1].Sign, firings[2].Sign)
	}
	if got := firings[2].Inputs[0].String(); got != "cost(@a, d, 5)" {
		t.Fatalf("winning derivation input = %s", got)
	}
}

// A contribution that does not reach a min group's best run costs the
// same whatever the group's size: the group stays ordered, so nothing
// is copied or sorted per contribution.
func TestMinContributionAllocsIndependentOfGroupSize(t *testing.T) {
	perRun := func(k int) allocs {
		rt := newRT(t, "a", minSrc)
		for i := 0; i < k; i++ {
			rt.InsertBase(costT("a", "d", int64(i)))
		}
		st, cr := rt.aggs["r1"], rt.prog.Rules[0]
		extra := costT("a", "d", 1000).Identified()
		b := Binding{"S": rel.Addr("a"), "D": rel.Addr("d"), "C": rel.Int(1000)}
		inputs := []rel.Tuple{extra}
		return allocsPerRun(50, func() {
			st.contribute(rt, cr, b, inputs, 1)
			st.contribute(rt, cr, b, inputs, -1)
		})
	}
	if small, large := perRun(2), perRun(200); small != large {
		t.Fatalf("one more contribution allocates %+v in a group of 2, %+v in a group of 200", small, large)
	}
}
