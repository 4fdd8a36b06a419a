// External test package: internal/server imports viz, so a test that
// renders a published snapshot cannot live inside package viz.
package viz_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/server"
	"repro/internal/viz"
)

// TestTablesViewAndSummary renders one node, then every node, of a
// published snapshot of the converged 3-node MINCOST line.
func TestTablesViewAndSummary(t *testing.T) {
	e, err := protocols.Build(protocols.MinCost, protocols.NodeNames(3),
		protocols.LineTopology(3, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := server.NewPublisher(e, server.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	snap := pub.Current()
	tables, ok := snap.NodeTables("n1")
	info, ok2 := snap.NodeInfo("n1")
	if !ok || !ok2 {
		t.Fatal("snapshot has no n1")
	}
	out := viz.TablesView("n1", snap.Time, tables, info.Prov)
	for _, want := range []string{
		"node n1 @ t=", "table mincost (2 tuples)", "mincost(@n1, n3, 2)", "rule executions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables view missing %q:\n%s", want, out)
		}
	}
	sum := viz.SnapshotSummary(snap.Time, snap.Nodes, func(n string) (int, int) {
		info, _ := snap.NodeInfo(n)
		return info.Tuples, info.Prov.ProvEntries
	})
	for _, want := range []string{"t=", " n1:", " n2:", " n3:"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q: %q", want, sum)
		}
	}
	if _, ok := snap.NodeInfo("n9"); ok {
		t.Fatal("NodeInfo reports an unknown node")
	}
}
