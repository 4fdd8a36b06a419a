package provquery

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provenance"
	"repro/internal/rel"
)

// snapClientOf freezes every node's provenance partition of a live
// engine into a SnapshotClient.
func snapClientOf(t *testing.T, e *engine.Engine) *SnapshotClient {
	t.Helper()
	views := map[string]PartitionView{}
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		if n.Prov == nil {
			t.Fatalf("node %s has no provenance store", addr)
		}
		views[addr] = n.Prov.View()
	}
	return NewSnapshotClient(views)
}

// canonProof renders a proof tree into a canonical string for
// structural comparison (the viz package cannot be imported here).
func canonProof(p *ProofNode, b *strings.Builder, indent string) {
	if p == nil {
		b.WriteString(indent + "<nil>\n")
		return
	}
	fmt.Fprintf(b, "%s%s @%s base=%v cycle=%v pruned=%v trunc=%v\n",
		indent, p.Tuple, p.Loc, p.Base, p.Cycle, p.Pruned, p.Truncated)
	for _, d := range p.Derivs {
		fmt.Fprintf(b, "%s  rule %s @%s\n", indent, d.Rule, d.RLoc)
		for _, c := range d.Children {
			canonProof(c, b, indent+"    ")
		}
	}
}

func proofString(p *ProofNode) string {
	var b strings.Builder
	canonProof(p, &b, "")
	return b.String()
}

// TestSnapshotMatchesLiveQueries runs every query type both live (over
// the simulated network) and against a frozen snapshot, and requires
// identical results — proof structure, base sets, node sets, counts,
// and the modeled message/byte traffic.
func TestSnapshotMatchesLiveQueries(t *testing.T) {
	e, c, err := buildGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapClientOf(t, e)
	mc := mincostTuple("n1", "n9", 4)

	for _, tc := range []struct {
		name string
		typ  QueryType
		opts Options
	}{
		{"lineage", Lineage, Options{}},
		{"bases", BaseTuples, Options{}},
		{"nodes", Nodes, Options{}},
		{"count", DerivCount, Options{}},
		{"lineage-threshold", Lineage, Options{Threshold: 1}},
		{"count-threshold", DerivCount, Options{Threshold: 1}},
		{"bases-sequential", BaseTuples, Options{Sequential: true}},
		// maxdepth truncation is path-based: identical frontier in every
		// traversal order.
		{"lineage-maxdepth", Lineage, Options{MaxDepth: 3}},
		{"count-maxdepth", DerivCount, Options{MaxDepth: 2}},
		// the maxnodes budget is consumed in visit order, so its
		// frontier parity holds under Sequential (DFS) evaluation.
		{"lineage-maxnodes", Lineage, Options{MaxNodes: 6, Sequential: true}},
		{"bases-maxnodes", BaseTuples, Options{MaxNodes: 10, Sequential: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, err := c.Query(tc.typ, "n1", mc, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := snap.Query(tc.typ, "n1", mc, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := proofString(frozen.Root), proofString(live.Root); got != want {
				t.Errorf("proof trees diverge:\n--- live ---\n%s--- snapshot ---\n%s", want, got)
			}
			if got, want := fmt.Sprint(frozen.Bases), fmt.Sprint(live.Bases); got != want {
				t.Errorf("bases: snapshot %s, live %s", got, want)
			}
			if got, want := fmt.Sprint(frozen.Nodes), fmt.Sprint(live.Nodes); got != want {
				t.Errorf("nodes: snapshot %s, live %s", got, want)
			}
			if frozen.Count != live.Count {
				t.Errorf("count: snapshot %d, live %d", frozen.Count, live.Count)
			}
			if frozen.Pruned != live.Pruned {
				t.Errorf("pruned: snapshot %v, live %v", frozen.Pruned, live.Pruned)
			}
			if frozen.Truncated != live.Truncated {
				t.Errorf("truncated: snapshot %v, live %v", frozen.Truncated, live.Truncated)
			}
			if frozen.Stats.Messages != live.Stats.Messages {
				t.Errorf("modeled messages %d, live %d", frozen.Stats.Messages, live.Stats.Messages)
			}
			if frozen.Stats.Bytes != live.Stats.Bytes {
				t.Errorf("modeled bytes %d, live %d", frozen.Stats.Bytes, live.Stats.Bytes)
			}
		})
	}
}

func buildGrid(side int) (*engine.Engine, *Client, error) {
	n := side * side
	e, err := protocols.Build(protocols.MinCost, protocols.NodeNames(n),
		protocols.GridTopology(side, side, 1), engine.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	c, err := Attach(e)
	if err != nil {
		return nil, nil, err
	}
	return e, c, nil
}

// TestSnapshotTextQuery exercises the textual query path end to end on
// a frozen snapshot.
func TestSnapshotTextQuery(t *testing.T) {
	e, _, err := buildGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapClientOf(t, e)
	q, err := ParseQuery("bases of mincost(@'n1','n4',2)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.Query(q.Type, q.At, q.Tuple, q.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bases) == 0 {
		t.Fatal("no base tuples")
	}
	for _, b := range res.Bases {
		if b.Tuple.Rel != "link" {
			t.Errorf("unexpected base %s", b.Tuple)
		}
	}
}

// TestSnapshotViewIsolatedFromLaterMutation freezes a view, mutates the
// live system, and requires the frozen query result to be unchanged —
// the essence of snapshot isolation.
func TestSnapshotViewIsolatedFromLaterMutation(t *testing.T) {
	e, _, err := buildGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapClientOf(t, e)
	mc := mincostTuple("n1", "n4", 2)
	before, err := snap.Query(DerivCount, "n1", mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the grid apart under the frozen view.
	if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	e.RunQuiescent()
	after, err := snap.Query(DerivCount, "n1", mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Count != after.Count {
		t.Fatalf("frozen view changed: %d -> %d", before.Count, after.Count)
	}
	if before.Count != 2 {
		t.Fatalf("expected 2 alternative derivations on the 2x2 grid, got %d", before.Count)
	}
}

// TestSnapshotConcurrentQueries hammers one frozen snapshot from many
// goroutines (meaningful under -race: a View must be safely shareable).
func TestSnapshotConcurrentQueries(t *testing.T) {
	e, _, err := buildGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapClientOf(t, e)
	mc := mincostTuple("n1", "n9", 4)
	want, err := snap.Query(DerivCount, "n1", mc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := snap.Query(DerivCount, "n1", mc, Options{})
				if err != nil {
					errs <- err
					return
				}
				if res.Count != want.Count {
					errs <- fmt.Errorf("count %d != %d", res.Count, want.Count)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreImplementsPartitionView: a live store can back a
// SnapshotClient directly (single-threaded use, e.g. tests).
func TestStoreImplementsPartitionView(t *testing.T) {
	st := provenance.NewStore("n1")
	tp := rel.NewTuple("link", rel.Addr("n1"), rel.Addr("n2"), rel.Int(1))
	st.AddBase(tp)
	snap := NewSnapshotClient(map[string]PartitionView{"n1": st})
	res, err := snap.Query(Lineage, "n1", tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Root.Base {
		t.Fatalf("expected base proof, got %+v", res.Root)
	}
}
