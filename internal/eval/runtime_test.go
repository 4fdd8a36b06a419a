package eval

import (
	"runtime"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// newRT compiles src and builds a runtime at addr, failing the test on
// any error. Cross-node sends and eval errors fail the test unless the
// caller overrides the callbacks.
func newRT(t *testing.T, addr, src string) *Runtime {
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
	rt, err := NewRuntime(addr, c)
	if err != nil {
		t.Fatal(err)
	}
	rt.ErrFn = func(err error) { t.Errorf("eval error: %v", err) }
	rt.SendFn = func(dst string, d Delta, f Firing) {
		t.Errorf("unexpected send to %s: %v", dst, d.Tuple)
	}
	return rt
}

func mustTuples(t *testing.T, rt *Runtime, relName string) []rel.Tuple {
	t.Helper()
	tbl, err := rt.Store.Table(relName)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Tuples()
}

const localReach = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
r1 reach(@S,D) :- link(@S,D,_).
r2 reach(@S,D) :- link(@S,Z,_), reach(@S,D), Z == D.
`

func TestSimpleDerivation(t *testing.T) {
	rt := newRT(t, "a", localReach)
	if err := rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	got := mustTuples(t, rt, "reach")
	if len(got) != 1 || got[0].String() != "reach(@a, b)" {
		t.Fatalf("reach = %v", got)
	}
}

func TestDeletionPropagates(t *testing.T) {
	rt := newRT(t, "a", localReach)
	lk := rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))
	if err := rt.InsertBase(lk); err != nil {
		t.Fatal(err)
	}
	if err := rt.DeleteBase(lk); err != nil {
		t.Fatal(err)
	}
	if got := mustTuples(t, rt, "reach"); len(got) != 0 {
		t.Fatalf("reach after delete = %v", got)
	}
	if got := mustTuples(t, rt, "link"); len(got) != 0 {
		t.Fatalf("link after delete = %v", got)
	}
}

func TestMultipleDerivationsCounting(t *testing.T) {
	// reach(a,c) derivable from two different links via two rules is not
	// expressible locally without cycles; instead use two links to the
	// same destination through different relations.
	src := `
materialize(l1, infinity, infinity, keys(1,2)).
materialize(l2, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,D) :- l1(@S,D).
r2 out(@S,D) :- l2(@S,D).
`
	rt := newRT(t, "a", src)
	d1 := rel.NewTuple("l1", rel.Addr("a"), rel.Addr("b"))
	d2 := rel.NewTuple("l2", rel.Addr("a"), rel.Addr("b"))
	if err := rt.InsertBase(d1); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertBase(d2); err != nil {
		t.Fatal(err)
	}
	tbl, _ := rt.Store.Table("out")
	out := rel.NewTuple("out", rel.Addr("a"), rel.Addr("b"))
	row, ok := tbl.Get(out.VID())
	if !ok || row.Count != 2 {
		t.Fatalf("out row = %+v %v, want count 2", row, ok)
	}
	// Removing one support keeps the tuple.
	if err := rt.DeleteBase(d1); err != nil {
		t.Fatal(err)
	}
	if row, ok = tbl.Get(out.VID()); !ok || row.Count != 1 {
		t.Fatalf("after one delete: %+v %v", row, ok)
	}
	if err := rt.DeleteBase(d2); err != nil {
		t.Fatal(err)
	}
	if _, ok = tbl.Get(out.VID()); ok {
		t.Fatal("out should be gone after both supports removed")
	}
}

func TestJoinTwoRelations(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(twohop, infinity, infinity, keys(1,2,3)).
r1 twohop(@S,D,C) :- link(@S,Z,C1), cost(@S,Z,D,C2), C := C1 + C2.
`
	rt := newRT(t, "a", src)
	// Insert in both orders to exercise both triggers.
	if err := rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertBase(rel.NewTuple("cost", rel.Addr("a"), rel.Addr("b"), rel.Addr("c"), rel.Int(2))); err != nil {
		t.Fatal(err)
	}
	got := mustTuples(t, rt, "twohop")
	if len(got) != 1 || got[0].String() != "twohop(@a, c, 3)" {
		t.Fatalf("twohop = %v", got)
	}
	// Second pair arriving cost-first.
	if err := rt.InsertBase(rel.NewTuple("cost", rel.Addr("a"), rel.Addr("d"), rel.Addr("e"), rel.Int(5))); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("d"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	got = mustTuples(t, rt, "twohop")
	if len(got) != 2 {
		t.Fatalf("twohop after second pair = %v", got)
	}
}

func TestConditionFiltering(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(cheap, infinity, infinity, keys(1,2)).
r1 cheap(@S,D) :- link(@S,D,C), C < 5.
`
	rt := newRT(t, "a", src)
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(3)))
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("c"), rel.Int(9)))
	got := mustTuples(t, rt, "cheap")
	if len(got) != 1 || got[0].String() != "cheap(@a, b)" {
		t.Fatalf("cheap = %v", got)
	}
}

func TestSelfJoinNoDoubleCount(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(tri, infinity, infinity, keys(1,2,3)).
r1 tri(@S,B,C) :- link(@S,B,_), link(@S,C,_).
`
	rt := newRT(t, "a", src)
	lab := rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))
	rt.InsertBase(lab)
	tbl, _ := rt.Store.Table("tri")
	self := rel.NewTuple("tri", rel.Addr("a"), rel.Addr("b"), rel.Addr("b"))
	row, ok := tbl.Get(self.VID())
	if !ok {
		t.Fatal("tri(a,b,b) missing")
	}
	if row.Count != 1 {
		t.Fatalf("self-join pairing counted %d times, want 1", row.Count)
	}
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("c"), rel.Int(1)))
	if tbl.Len() != 4 {
		t.Fatalf("tri rows = %d, want 4 (bb bc cb cc)", tbl.Len())
	}
	// Deleting link(a,b) must retract exactly the three pairings that
	// involve it.
	rt.DeleteBase(lab)
	if tbl.Len() != 1 {
		t.Fatalf("tri rows after delete = %d, want 1 (cc)", tbl.Len())
	}
	cc := rel.NewTuple("tri", rel.Addr("a"), rel.Addr("c"), rel.Addr("c"))
	if row, ok := tbl.Get(cc.VID()); !ok || row.Count != 1 {
		t.Fatalf("cc row = %+v %v", row, ok)
	}
}

func TestKeyReplacement(t *testing.T) {
	src := `
materialize(route, infinity, infinity, keys(1,2)).
materialize(copy, infinity, infinity, keys(1,2,3)).
r1 copy(@S,D,C) :- route(@S,D,C).
`
	rt := newRT(t, "a", src)
	rt.InsertBase(rel.NewTuple("route", rel.Addr("a"), rel.Addr("d"), rel.Int(10)))
	rt.InsertBase(rel.NewTuple("route", rel.Addr("a"), rel.Addr("d"), rel.Int(5)))
	routes := mustTuples(t, rt, "route")
	if len(routes) != 1 || routes[0].String() != "route(@a, d, 5)" {
		t.Fatalf("route = %v (key replacement failed)", routes)
	}
	copies := mustTuples(t, rt, "copy")
	if len(copies) != 1 || copies[0].String() != "copy(@a, d, 5)" {
		t.Fatalf("copy = %v (derived state not replaced)", copies)
	}
}

func TestRemoteHeadSends(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(back, infinity, infinity, keys(1,2)).
r1 back(@D,S) :- link(@S,D,_).
`
	rt := newRT(t, "a", src)
	var sent []Delta
	var dsts []string
	rt.SendFn = func(dst string, d Delta, f Firing) {
		dsts = append(dsts, dst)
		sent = append(sent, d)
		if f.RuleName != "r1" || f.OutputLoc != dst {
			t.Errorf("firing context wrong: %+v", f)
		}
	}
	lk := rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))
	rt.InsertBase(lk)
	if len(sent) != 1 || dsts[0] != "b" || sent[0].Sign != 1 {
		t.Fatalf("sent = %v to %v", sent, dsts)
	}
	rt.DeleteBase(lk)
	if len(sent) != 2 || sent[1].Sign != -1 {
		t.Fatalf("deletion not sent: %v", sent)
	}
	if got := rt.Statistics().TuplesSent; got != 2 {
		t.Fatalf("TuplesSent = %d", got)
	}
}

func TestReceiveRemote(t *testing.T) {
	src := `
materialize(back, infinity, infinity, keys(1,2)).
materialize(echo, infinity, infinity, keys(1,2)).
r1 echo(@S,D) :- back(@S,D).
`
	rt := newRT(t, "b", src)
	in := rel.NewTuple("back", rel.Addr("b"), rel.Addr("a"))
	rt.ReceiveRemote(Delta{Tuple: in, Sign: 1})
	if got := mustTuples(t, rt, "echo"); len(got) != 1 {
		t.Fatalf("echo = %v", got)
	}
	rt.ReceiveRemote(Delta{Tuple: in, Sign: -1})
	if got := mustTuples(t, rt, "echo"); len(got) != 0 {
		t.Fatalf("echo after remote delete = %v", got)
	}
}

func TestReceiveRemoteBatch(t *testing.T) {
	src := `
materialize(back, infinity, infinity, keys(1,2)).
materialize(echo, infinity, infinity, keys(1,2)).
r1 echo(@S,D) :- back(@S,D).
`
	mk := func(d string, sign int) Delta {
		return Delta{Tuple: rel.NewTuple("back", rel.Addr("b"), rel.Addr(d)), Sign: sign}
	}
	// One batched fixpoint must land in the same state as the deltas
	// applied one by one, including a +/- pair that nets to zero.
	batched := newRT(t, "b", src)
	batch := []Delta{mk("a", 1), mk("c", 1), mk("c", -1), mk("d", 1)}
	batched.ReceiveRemoteBatch(batch)

	serial := newRT(t, "b", src)
	for _, d := range batch {
		serial.ReceiveRemote(d)
	}

	got := mustTuples(t, batched, "echo")
	want := mustTuples(t, serial, "echo")
	if len(got) != 2 || len(got) != len(want) {
		t.Fatalf("echo: batched %v, serial %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("echo diverged at %d: batched %v, serial %v", i, got, want)
		}
	}
	if q := batched.Statistics().DeltasProcessed; q < len(batch) {
		t.Fatalf("DeltasProcessed = %d, want >= %d", q, len(batch))
	}
}

func TestEventTriggersRuleButIsNotStored(t *testing.T) {
	src := `
materialize(log, infinity, infinity, keys(1,2)).
r1 log(@S,D) :- ping(@S,D).
`
	rt := newRT(t, "a", src)
	rt.ReceiveRemote(Delta{Tuple: rel.NewTuple("ping", rel.Addr("a"), rel.Addr("x")), Sign: 1})
	if got := mustTuples(t, rt, "log"); len(got) != 1 {
		t.Fatalf("log = %v", got)
	}
	if _, err := rt.Store.Table("ping"); err == nil {
		t.Fatal("event relation must not have a table")
	}
}

func TestFiringHookSeesInputsInBodyOrder(t *testing.T) {
	src := `
materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
materialize(h, infinity, infinity, keys(1,2)).
r1 h(@S,Y) :- a(@S,X), b(@S,Y), X == Y.
`
	rt := newRT(t, "n", src)
	var firings []Firing
	rt.FireFn = func(f Firing) { firings = append(firings, f) }
	rt.InsertBase(rel.NewTuple("b", rel.Addr("n"), rel.Int(1)))
	rt.InsertBase(rel.NewTuple("a", rel.Addr("n"), rel.Int(1)))
	if len(firings) != 1 {
		t.Fatalf("firings = %d", len(firings))
	}
	f := firings[0]
	if len(f.Inputs) != 2 || f.Inputs[0].Rel != "a" || f.Inputs[1].Rel != "b" {
		t.Fatalf("inputs order = %v", f.Inputs)
	}
	if f.Sign != 1 || f.RuleName != "r1" || f.OutputLoc != "n" {
		t.Fatalf("firing = %+v", f)
	}
}

func TestEvalErrorIsReportedNotFatal(t *testing.T) {
	src := `
materialize(in, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,X) :- in(@S,L), X := f_first(L).
`
	rt := newRT(t, "a", src)
	var errs []error
	rt.ErrFn = func(e error) { errs = append(errs, e) }
	// Empty list makes f_first fail; the binding is skipped.
	rt.InsertBase(rel.NewTuple("in", rel.Addr("a"), rel.List()))
	if len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
	if got := mustTuples(t, rt, "out"); len(got) != 0 {
		t.Fatalf("out = %v", got)
	}
	if rt.Statistics().EvalErrors != 1 {
		t.Fatalf("EvalErrors = %d", rt.Statistics().EvalErrors)
	}
	// A good tuple still works afterwards.
	rt.InsertBase(rel.NewTuple("in", rel.Addr("a"), rel.List(rel.Int(7))))
	if got := mustTuples(t, rt, "out"); len(got) != 1 {
		t.Fatalf("out after good tuple = %v", got)
	}
}

func TestWildcardAndRepeatedVariable(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(selfloop, infinity, infinity, keys(1,2)).
r1 selfloop(@S,S) :- link(@S,S,_).
`
	rt := newRT(t, "a", src)
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("a"), rel.Int(1)))
	rt.InsertBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1)))
	got := mustTuples(t, rt, "selfloop")
	if len(got) != 1 || got[0].String() != "selfloop(@a, a)" {
		t.Fatalf("selfloop = %v", got)
	}
}

func TestCompileRejectsNonLocalized(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2)).
r1 path(@S,D) :- link(@S,Z,_), path(@Z,D).
`
	prog := ndlog.MustParse(src)
	a, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(a); err == nil {
		t.Fatal("Compile must reject a multi-location body")
	}
}

func TestCompileRejectsRemoteAggregate(t *testing.T) {
	src := `
materialize(cost, infinity, infinity, keys(1,2)).
materialize(best, infinity, infinity, keys(1,2)).
r1 best(@D,min<C>) :- cost(@S,D,C).
`
	prog := ndlog.MustParse(src)
	a, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(a); err == nil {
		t.Fatal("Compile must reject aggregate with remote head")
	}
}

func TestMaybeRulesAreSkippedByCompile(t *testing.T) {
	src := `
materialize(inr, infinity, infinity, keys(1,2)).
materialize(outr, infinity, infinity, keys(1,2)).
br1 outr(@S,R2) ?- inr(@S,R1), f_isExtend(R2,R1,S) == 1.
`
	prog := ndlog.MustParse(src)
	a, err := ndlog.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rules) != 0 {
		t.Fatalf("maybe rule compiled: %v", c.Rules)
	}
}

func TestInsertBaseValidation(t *testing.T) {
	rt := newRT(t, "a", localReach)
	if err := rt.InsertBase(rel.NewTuple("ghost", rel.Addr("a"))); err == nil {
		t.Fatal("undeclared relation must error")
	}
	if err := rt.InsertBase(rel.NewTuple("link", rel.Addr("a"))); err == nil {
		t.Fatal("bad arity must error")
	}
	if err := rt.DeleteBase(rel.NewTuple("ghost", rel.Addr("a"))); err == nil {
		t.Fatal("delete from undeclared relation must error")
	}
}

func TestDeleteAbsentTupleIsNoop(t *testing.T) {
	rt := newRT(t, "a", localReach)
	if err := rt.DeleteBase(rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	if got := mustTuples(t, rt, "link"); len(got) != 0 {
		t.Fatalf("link = %v", got)
	}
}

// A probed row that fails a later step costs nothing: the join binds in
// place and undoes, so a trigger whose probe matches N rows that all
// fail a condition allocates the same for N = 1 and N = 64.
func TestJoinProbeAllocsIndependentOfMatches(t *testing.T) {
	src := `
materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2,3)).
materialize(h, infinity, infinity, keys(1,2)).
r1 h(@S,D) :- a(@S,X), b(@S,X,D), D > 1000.
`
	perRun := func(n int) allocs {
		rt := newRT(t, "s", src)
		for i := 0; i < n; i++ {
			rt.InsertBase(rel.NewTuple("b", rel.Addr("s"), rel.Int(7), rel.Int(int64(i))))
		}
		a := rel.NewTuple("a", rel.Addr("s"), rel.Int(7))
		return allocsPerRun(50, func() {
			rt.ReceiveRemote(Delta{Tuple: a, Sign: 1})
			rt.ReceiveRemote(Delta{Tuple: a, Sign: -1})
		})
	}
	if one, many := perRun(1), perRun(64); one != many {
		t.Fatalf("insert+delete of a trigger tuple allocates %+v with 1 failing match, %+v with 64", one, many)
	}
}

// allocs is what one run of a function allocates.
type allocs struct{ Count, Bytes uint64 }

// allocsPerRun is testing.AllocsPerRun reporting bytes beside the count:
// a copy or sort that grows with its input shows in the bytes even when
// it is one allocation either way.
func allocsPerRun(runs int, f func()) allocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs{(after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)}
}

// TestFlushAfterPanicDropsOnlyWhatRan: when a delta's evaluation
// panics, the deltas up to and including it leave the queue and the
// rest stay queued, so a caller that recovers and flushes again applies
// no delta twice.
func TestFlushAfterPanicDropsOnlyWhatRan(t *testing.T) {
	rt := newRT(t, "a", `
materialize(in, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,X) :- in(@S,L), X := f_first(L).
`)
	rt.ErrFn = func(err error) { panic(err) }
	empty := rel.NewTuple("in", rel.Addr("a"), rel.List())
	five := rel.NewTuple("in", rel.Addr("a"), rel.List(rel.Int(5)))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("f_first of an empty list did not panic")
			}
		}()
		rt.ReceiveRemoteBatch([]Delta{{Tuple: empty, Sign: 1}, {Tuple: five, Sign: 1}})
	}()
	rt.Flush()
	tbl, err := rt.Store.Table("in")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []rel.Tuple{empty, five} {
		if row, ok := tbl.Get(tp.VID()); !ok || row.Count != 1 {
			t.Errorf("%s: row %v, present %v; want count 1", tp, row, ok)
		}
	}
	if got := mustTuples(t, rt, "out"); len(got) != 1 || got[0].String() != "out(@a, 5)" {
		t.Errorf("out = %v, want [out(@a, 5)]", got)
	}
}
