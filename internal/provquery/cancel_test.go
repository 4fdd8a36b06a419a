package provquery

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// countingView wraps a PartitionView, counting Derivations lookups and
// cancelling the query's context once a threshold is crossed — the
// snapshot analogue of a client disconnecting mid-traversal.
type countingView struct {
	PartitionView
	calls  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (v countingView) Derivations(vid rel.ID) ([]provenance.Entry, bool) {
	if n := v.calls.Add(1); v.after > 0 && n == v.after {
		v.cancel()
	}
	return v.PartitionView.Derivations(vid)
}

// TestSnapshotQueryCancelledMidWalk: cancelling the context while the
// snapshot walk is inside a deep proof returns a structured error (no
// partial Result) and provably stops the traversal early.
func TestSnapshotQueryCancelledMidWalk(t *testing.T) {
	e, c, err := buildGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	_ = c

	// Baseline: how many partition lookups does the full walk make?
	var baseline atomic.Int64
	views := map[string]PartitionView{}
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		views[addr] = countingView{PartitionView: n.Prov.View(), calls: &baseline}
	}
	corner := rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("n16"), rel.Int(6))
	if _, err := NewSnapshotClient(views).Query(Lineage, "n1", corner, Options{}); err != nil {
		t.Fatal(err)
	}
	if baseline.Load() < 20 {
		t.Fatalf("proof too shallow for a meaningful cancellation test: %d lookups", baseline.Load())
	}

	// Now cancel after a handful of lookups, mid-walk.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	const after = 5
	cviews := map[string]PartitionView{}
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		cviews[addr] = countingView{PartitionView: n.Prov.View(), calls: &calls, after: after, cancel: cancel}
	}
	res, err := NewSnapshotClient(cviews).QueryContext(ctx, Lineage, "n1", corner, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = (%v, %v), want context.Canceled", res, err)
	}
	if res != nil {
		t.Fatal("cancelled query must not return a partial Result")
	}
	if got := calls.Load(); got >= baseline.Load() {
		t.Fatalf("cancelled walk made %d lookups, full walk makes %d — it never stopped",
			got, baseline.Load())
	}
}

// TestLiveQueryCancelled: the live distributed client honors a dead
// context before issuing any query traffic.
func TestLiveQueryCancelled(t *testing.T) {
	_, c := buildLine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mc := rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("n4"), rel.Int(3))
	res, err := c.QueryContext(ctx, Lineage, "n1", mc, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext = (%v, %v), want context.Canceled", res, err)
	}
	// The same query without the dead context still works: the abort
	// left no residue in the services.
	if _, err := c.Query(Lineage, "n1", mc, Options{}); err != nil {
		t.Fatalf("query after aborted query: %v", err)
	}
}

// TestLiveQueryCancelledMidWalk: a live query cancelled by a simnet
// timer while its hops are in flight returns the context's error, and
// its walk is drained before the call returns: nothing is left queued
// on the network, and the next identical query measures the traffic of
// an uninterrupted one.
func TestLiveQueryCancelledMidWalk(t *testing.T) {
	e, c, err := buildGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	corner := rel.NewTuple("mincost", rel.Addr("n1"), rel.Addr("n16"), rel.Int(6))
	full, err := c.Query(Lineage, "n1", corner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Latency < 4 {
		t.Fatalf("proof too shallow to cancel mid-walk: latency %d", full.Stats.Latency)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Net.After(full.Stats.Latency/4, cancel)
	before := e.Net.KindTotals()[MsgKind]
	res, err := c.QueryContext(ctx, Lineage, "n1", corner, Options{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("QueryContext = (%v, %v), want context.Canceled", res, err)
	}
	if n := e.Net.Pending(); n != 0 {
		t.Fatalf("cancelled query left %d events queued", n)
	}
	sent := e.Net.KindTotals()[MsgKind].Messages - before.Messages
	if sent == 0 || sent >= full.Stats.Messages {
		t.Fatalf("cancelled query sent %d messages, full query %d: not cancelled mid-walk", sent, full.Stats.Messages)
	}

	again, err := c.Query(Lineage, "n1", corner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats != full.Stats {
		t.Fatalf("query after a cancelled one measured %+v, uninterrupted %+v", again.Stats, full.Stats)
	}
}
