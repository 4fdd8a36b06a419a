package server

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/client"
	"repro/internal/rel"
)

// churnTuple is a base fact whose insertion perturbs the engine's
// state without needing any particular protocol meaning.
func churnTuple(node string, k int) rel.Tuple {
	return rel.NewTuple("link", rel.Addr(node), rel.Addr(node), rel.Int(int64(90+k%7)))
}

// nodeVersions records every node's (state, prov) version pair.
func nodeVersions(t *testing.T, p *Publisher) map[string][2]uint64 {
	t.Helper()
	out := map[string][2]uint64{}
	for _, addr := range p.eng.Nodes() {
		n, ok := p.eng.Node(addr)
		if !ok {
			t.Fatalf("missing node %s", addr)
		}
		out[addr] = [2]uint64{n.RT.Store.StateVersion(), n.Prov.Version()}
	}
	return out
}

// TestPublishSharesUnchangedNodeStates is the tentpole handoff
// invariant: after a publish, every node whose state did not change
// keeps its identical *nodeState (tables, view, and NodeInfo all
// shared, nothing recounted), while changed nodes get fresh ones.
func TestPublishSharesUnchangedNodeStates(t *testing.T) {
	e := buildGrid(t, 3)
	pub, err := NewPublisher(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	pub.Detach()

	before := pub.Publish()
	pre := nodeVersions(t, pub)
	if err := e.InsertFact(churnTuple("n1", 0)); err != nil {
		t.Fatal(err)
	}
	after := pub.Publish()
	post := nodeVersions(t, pub)

	if after == before || after.Version != before.Version+1 {
		t.Fatalf("churn did not mint a new version: %d -> %d", before.Version, after.Version)
	}
	changed, carried := 0, 0
	for i, addr := range after.Nodes {
		if pre[addr] == post[addr] {
			carried++
			if before.states[i] != after.states[i] {
				t.Errorf("node %s unchanged but its nodeState was rebuilt", addr)
			}
		} else {
			changed++
			if before.states[i] == after.states[i] {
				t.Errorf("node %s changed but still shares the old nodeState", addr)
			}
		}
	}
	if changed == 0 {
		t.Fatal("churn changed no node")
	}
	if carried == 0 {
		t.Fatal("test is vacuous: every node changed, nothing was carried")
	}

	// The carried info (including the tuple count of satellite fame) is
	// byte-for-byte the previous epoch's — never recounted.
	for i, addr := range after.Nodes {
		if pre[addr] != post[addr] {
			continue
		}
		if got, want := fmt.Sprint(after.states[i].info), fmt.Sprint(before.states[i].info); got != want {
			t.Errorf("node %s carried info drifted: %s vs %s", addr, got, want)
		}
	}
}

// TestPublishNoChangeReturnsSameSnapshot: a publish with no state
// change anywhere returns the identical snapshot, no new version.
func TestPublishNoChangeReturnsSameSnapshot(t *testing.T) {
	e := buildGrid(t, 2)
	pub, err := NewPublisher(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	pub.Detach()
	s1 := pub.Publish()
	s2 := pub.Publish()
	if s1 != s2 {
		t.Fatalf("no-op publish minted version %d after %d", s2.Version, s1.Version)
	}
}

// mallocsAround measures heap allocations performed by fn on this
// goroutine (the publisher path is single-threaded between epochs).
func mallocsAround(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPublishAllocsBoundedByDelta drives a long churn loop and checks
// the per-publish allocation cost tracks the delta, not the state or
// the epoch count: late-loop publishes allocate no more than early
// ones, and a bigger grid costs no meaningful multiple of a small one
// for the same 1-tuple delta.
func TestPublishAllocsBoundedByDelta(t *testing.T) {
	measure := func(side, epochs int) (perPublish uint64) {
		e := buildGrid(t, side)
		pub, err := NewPublisher(e, 4)
		if err != nil {
			t.Fatal(err)
		}
		pub.Detach()
		var worst uint64
		for k := 0; k < epochs; k++ {
			tp := churnTuple("n1", k)
			if err := e.InsertFact(tp); err != nil {
				t.Fatal(err)
			}
			if err := e.DeleteFact(tp); err != nil {
				t.Fatal(err)
			}
			if m := mallocsAround(func() { pub.Publish() }); k > epochs/2 && m > worst {
				worst = m
			}
		}
		return worst
	}

	small := measure(2, 400)
	large := measure(5, 400)
	t.Logf("worst per-publish mallocs: 2x2 grid %d, 5x5 grid %d", small, large)
	// The delta is one tuple in both runs. A generous constant bound
	// catches any O(state) or O(history) regression (those would be in
	// the thousands for the 5x5 grid) without being flaky about small
	// bookkeeping differences.
	if large > 4*small+200 {
		t.Fatalf("publish allocations grew with state size: 2x2=%d 5x5=%d", small, large)
	}
}

// TestChurnLoopBounded runs a 10k-epoch churn loop against one
// publisher and checks that what it retains stays bounded and
// reachable: the ring never exceeds retain (there is no other
// per-publish structure), and ?t= at every retained version's instant
// resolves every owned node to a state published at or before it.
func TestChurnLoopBounded(t *testing.T) {
	const epochs = 10000
	const retain = 8
	e := buildGrid(t, 2)
	pub, err := NewPublisher(e, retain)
	if err != nil {
		t.Fatal(err)
	}
	pub.Detach()
	flapVersions(t, pub, epochs) // every epoch a version at a later instant
	oldest, newest := pub.Versions()
	if n := len(pub.cur.Load().snaps); n > retain || newest-oldest+1 > retain {
		t.Fatalf("ring grew past retain: %d snapshots, versions [%d, %d]", n, oldest, newest)
	}
	ctx := context.Background()
	pin, apiErr := pub.Pin(ctx, 0)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	first, _ := pub.At(oldest)
	for v := oldest; v <= newest; v++ {
		snap, ok := pub.At(v)
		if !ok {
			t.Fatalf("retained version %d does not resolve", v)
		}
		at := int64(snap.Time)
		for _, addr := range snap.Nodes {
			doc, apiErr := pub.StateDoc(ctx, pin, addr, "", &at)
			if apiErr != nil {
				t.Fatalf("node %s at version %d's instant t=%d: %v", addr, v, at, apiErr)
			}
			if doc.Version != newest || doc.TimeUs > at {
				t.Fatalf("node %s at t=%d: version %d (want the pin, %d), state published at t=%d",
					addr, at, doc.Version, newest, doc.TimeUs)
			}
		}
	}
	// Reach ends with the ring: one instant earlier is not retained.
	before := int64(first.Time) - 1
	if _, apiErr := pub.StateDoc(ctx, pin, "n1", "", &before); apiErr == nil || apiErr.Code != client.CodeUnknownNode {
		t.Fatalf("t before the oldest retained version: %v, want %s", apiErr, client.CodeUnknownNode)
	}
}
