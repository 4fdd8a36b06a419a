package provgraph

import (
	"context"
	"errors"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/testutil"
)

// cancellingSource cancels the walk's context from inside the graph —
// after a fixed number of Derivations lookups — so tests can prove the
// traversal stops mid-walk instead of draining the rest of the graph.
type cancellingSource struct {
	*fakeSource
	calls  int
	after  int
	cancel context.CancelFunc
}

func (c *cancellingSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.fakeSource.Derivations(loc, vid)
}

// TestWalkCancelledMidWalkStopsExpanding: cancelling the context while
// the walk is deep inside a long chain aborts the remaining expansion
// — the walk still unwinds (its root finishes) but resolves only
// the vertices visited before the cancellation, and Err reports why.
func TestWalkCancelledMidWalkStopsExpanding(t *testing.T) {
	testutil.CheckGoroutines(t)
	const depth = 200
	const after = 5
	f := newFakeSource()
	vid, loc := chain(f, depth)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{fakeSource: f, after: after, cancel: cancel}
	w := NewWalkContext(ctx, src, Lineage, Options{})

	w.Start(loc, vid)
	if !w.Done() {
		t.Fatal("aborted walk never finished")
	}
	if err := w.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	// The vertex whose Derivations call fired the cancel still
	// completes; everything below it must not be expanded.
	if got := w.Resolved(); got > after+1 {
		t.Fatalf("walk resolved %d vertices after cancellation at call %d (chain depth %d)",
			got, after, depth)
	}
	if src.calls >= depth {
		t.Fatalf("walk consulted the source %d times, i.e. drained the whole chain", src.calls)
	}
}

// TestWalkExpiredDeadlineResolvesNothing: a context that is already
// past its deadline aborts the walk at the very first vertex.
func TestWalkExpiredDeadlineResolvesNothing(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := newFakeSource()
	vid, loc := chain(f, 10)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := NewWalkContext(ctx, f, Lineage, Options{})
	w.Start(loc, vid)
	if !w.Done() {
		t.Fatal("aborted walk never finished")
	}
	if w.Resolved() != 0 {
		t.Fatalf("walk resolved %d vertices under a dead context", w.Resolved())
	}
	if err := w.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
}

// TestWalkAbortNeverCaches: an aborted walk's partial accumulators
// must not be written into per-node caches, where a later full walk
// would wrongly reuse them.
func TestWalkAbortNeverCaches(t *testing.T) {
	testutil.CheckGoroutines(t)
	const depth = 50
	f := newFakeSource()
	vid, loc := chain(f, depth)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingSource{fakeSource: f, after: 3, cancel: cancel}
	w := NewWalkContext(ctx, src, Lineage, Options{UseCache: true})
	w.Start(loc, vid)
	if w.Err() == nil {
		t.Fatal("walk was not aborted")
	}
	if f.puts != 0 {
		t.Fatalf("aborted walk wrote %d cache entries", f.puts)
	}

	// The same walk run to completion afterwards sees clean caches and
	// produces the full proof.
	out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{UseCache: true}), loc, vid)
	if res := NewResult(Lineage, out); res.Root == nil || res.Root.Size() != depth+1 {
		t.Fatalf("post-abort walk damaged: got %d vertices, want %d", res.Root.Size(), depth+1)
	}
}
