package engine

import (
	"slices"
	"testing"

	"repro/internal/rel"
)

// TestEpochObserverFiresAtConsistentCuts attaches an observer, drives a
// topology change, and checks that (a) the observer fires at least once
// per drain, (b) it always runs at quiescent-per-epoch points where
// re-entering RunQuiescent is a no-op, and (c) the final state matches
// an observer-free run (the epoch loop it forces is state-identical).
func TestEpochObserverFiresAtConsistentCuts(t *testing.T) {
	e := newMincost(t, "n1", "n2", "n3")
	fired := 0
	e.SetEpochObserver(func() {
		fired++
		// Re-entrancy must be a no-op: the drain owns the loop.
		e.RunQuiescent()
	})
	if err := e.AddBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddBiLink("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("observer never fired")
	}

	plain := newMincost(t, "n1", "n2", "n3")
	if err := plain.AddBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	if err := plain.AddBiLink("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	got := tuplesString(e.GlobalTuples("mincost"))
	want := tuplesString(plain.GlobalTuples("mincost"))
	if got != want {
		t.Fatalf("observed run diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestEpochObserverFiresOnEmptyDrain: even a drain that finds no
// pending network events must fire the observer once — callers mutate
// state immediately before RunQuiescent (e.g. a fact whose derivations
// stay local), and a publisher must get to see that cut.
func TestEpochObserverFiresOnEmptyDrain(t *testing.T) {
	e := newMincost(t, "n1")
	fired := 0
	e.SetEpochObserver(func() { fired++ })
	e.RunQuiescent()
	if fired != 1 {
		t.Fatalf("observer fired %d times on an empty drain, want 1", fired)
	}
	if err := e.InsertFact(rel.NewTuple("link", rel.Addr("n1"), rel.Addr("n1"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	if fired < 2 {
		t.Fatalf("observer did not fire for a local-only insertion (fired=%d)", fired)
	}
}

// TestEpochObserverSeesMonotonicStateVersions: per-node store versions
// only grow across observer invocations — each cut is a later (or
// equal) state than the previous one.
func TestEpochObserverSeesMonotonicStateVersions(t *testing.T) {
	e := newMincost(t, "n1", "n2", "n3")
	last := map[string]uint64{}
	e.SetEpochObserver(func() {
		for _, addr := range e.Nodes() {
			n, _ := e.Node(addr)
			v := n.RT.Store.StateVersion()
			if v < last[addr] {
				t.Fatalf("node %s state version went backwards: %d -> %d", addr, last[addr], v)
			}
			last[addr] = v
		}
	})
	if err := e.AddBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddBiLink("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
}

// TestEpochLoopPanicLeavesEngineDrainable: an evaluation panic during
// an epoch-loop delta delivery surfaces from RunQuiescent on the
// caller's goroutine, and unwinds the scheduler's state on the way — the
// destination's send capture is detached and the drain flag cleared —
// so a caller that recovers can drain again.
func TestEpochLoopPanicLeavesEngineDrainable(t *testing.T) {
	src := `
materialize(in, infinity, infinity, keys(1,2,3)).
materialize(mid, infinity, infinity, keys(1,2,3)).
materialize(out, infinity, infinity, keys(1,2,3)).
r1 mid(@D,S,L) :- in(@S,D,L).
r2 out(@S,D,X) :- mid(@D,S,L), X := f_first(L).
`
	e, err := New(src, []string{"n1", "n2"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.SetEpochObserver(func() {})
	n1, _ := e.Node("n1")
	n2, _ := e.Node("n2")

	// An empty list reaches n2 as a delta; r2's f_first fails there and
	// the default error policy panics, mid-delivery.
	if err := n1.InsertFact(rel.NewTuple("in", rel.Addr("n1"), rel.Addr("n2"), rel.List())); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunQuiescent returned normally; want the evaluation panic")
			}
		}()
		e.RunQuiescent()
	}()
	if n2.cap != nil {
		t.Error("n2 still captures its sends after the panic")
	}
	if e.draining {
		t.Error("engine still marked draining after the panic")
	}

	// The next drain is a real one: n2 derives out and sends it to n1
	// over the network, not into a stale capture buffer.
	if err := n1.InsertFact(rel.NewTuple("in", rel.Addr("n1"), rel.Addr("n2"), rel.List(rel.Int(5)))); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	want := rel.NewTuple("out", rel.Addr("n1"), rel.Addr("n2"), rel.Int(5))
	if got, err := n1.Tuples("out"); err != nil || len(got) != 1 || !got[0].Equal(want) {
		t.Fatalf("out at n1 after the second drain = %v (%v), want [%s]", got, err, want)
	}
}

// TestChangesReportsWhatChanged: at each cut the change scan reports
// exactly the nodes whose visible state moved, as ascending Nodes()
// positions, once; outside a drain Changes scans on the spot. A fresh
// engine reports nothing: the baseline is the state nodes are built in.
func TestChangesReportsWhatChanged(t *testing.T) {
	e := newMincost(t, "n3", "n1", "n2") // positions by name: n1 0, n2 1, n3 2
	if changed, dirty := e.Changes(); changed || len(dirty) != 0 {
		t.Fatalf("fresh engine reports changed=%v dirty=%v", changed, dirty)
	}
	var cuts [][]int
	e.SetEpochObserver(func() {
		changed, dirty := e.Changes()
		if changed != (len(dirty) > 0) || !slices.IsSorted(dirty) {
			t.Errorf("cut reports changed=%v dirty=%v", changed, dirty)
		}
		if changed {
			cuts = append(cuts, slices.Clone(dirty))
		}
		if again, d := e.Changes(); again || len(d) != 0 {
			t.Errorf("second report at one cut: changed=%v dirty=%v", again, d)
		}
	})
	union := func() []int {
		var all []int
		for _, c := range cuts {
			all = append(all, c...)
		}
		slices.Sort(all)
		cuts = nil
		return slices.Compact(all)
	}

	// A self-link changes n2 and nothing else.
	if err := e.InsertFact(rel.NewTuple("link", rel.Addr("n2"), rel.Addr("n2"), rel.Int(1))); err != nil {
		t.Fatal(err)
	}
	if got := union(); !slices.Equal(got, []int{1}) {
		t.Fatalf("self-link at n2 reported %v, want [1]", got)
	}
	// A link between n1 and n3 never reaches n2.
	if err := e.AddBiLink("n1", "n3", 1); err != nil {
		t.Fatal(err)
	}
	if got := union(); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("n1-n3 link reported %v, want [0 2]", got)
	}

	// Between drains: a touch that changes nothing reports nothing, a
	// direct write reports its node once.
	e.SetEpochObserver(nil)
	n2, _ := e.Node("n2")
	n2.Touch()
	if changed, dirty := e.Changes(); changed || len(dirty) != 0 {
		t.Fatalf("touch without a change reports changed=%v dirty=%v", changed, dirty)
	}
	if err := n2.InsertFact(rel.NewTuple("link", rel.Addr("n2"), rel.Addr("n2"), rel.Int(2))); err != nil {
		t.Fatal(err)
	}
	if changed, dirty := e.Changes(); !changed || !slices.Equal(dirty, []int{1}) {
		t.Fatalf("direct write at n2 reports changed=%v dirty=%v, want true [1]", changed, dirty)
	}
	if changed, dirty := e.Changes(); changed || len(dirty) != 0 {
		t.Fatalf("report not consumed: changed=%v dirty=%v", changed, dirty)
	}
}
