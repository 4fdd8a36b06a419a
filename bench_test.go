// Benchmark harness: one benchmark (family) per experiment in
// EXPERIMENTS.md / DESIGN.md §3. The SIGMOD'11 paper is a demonstration
// paper, so the "figures" are demo scenarios; each benchmark regenerates
// the corresponding scenario and reports the metrics the demo shows
// (convergence traffic, provenance maintenance overhead, query traffic
// with and without optimizations, scaling).
package nettrails_test

import (
	"fmt"
	"testing"

	nettrails "repro"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provquery"
)

func mustSystem(b *testing.B, program string, n int, edges []protocols.Edge) *nettrails.System {
	b.Helper()
	sys, err := nettrails.NewSystem(program, nettrails.NodeNames(n))
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range edges {
		if err := sys.AddLink(e.A, e.B, e.Cost); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

func diamond() []protocols.Edge {
	return []protocols.Edge{
		{A: "n1", B: "n2", Cost: 1}, {A: "n1", B: "n3", Cost: 1},
		{A: "n2", B: "n4", Cost: 1}, {A: "n3", B: "n4", Cost: 1},
	}
}

// BenchmarkFig2ProvenanceRender (E2): build MINCOST provenance on the
// diamond and render the Figure 2 exploration (proof tree + tuple card).
func BenchmarkFig2ProvenanceRender(b *testing.B) {
	sys := mustSystem(b, nettrails.MinCost, 4, diamond())
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n4"), nettrails.Int(2))
	res, err := sys.Lineage("n1", mc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nettrails.RenderProof(res.Root)
		_ = nettrails.RenderTupleCard(mc, "n1")
	}
}

// BenchmarkDemo1Maintenance* (E3): incremental maintenance cost of one
// topology change (link removal + re-insertion) after convergence, for
// each declarative protocol of demo use case 1.
func benchMaintenance(b *testing.B, program string) {
	sys := mustSystem(b, program, 6, protocols.RingTopology(6, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.RemoveLink("n2", "n3", 1); err != nil {
			b.Fatal(err)
		}
		if err := sys.AddLink("n2", "n3", 1); err != nil {
			b.Fatal(err)
		}
	}
	msgs, bytes, _ := sys.Engine.Net.Totals()
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}

func BenchmarkDemo1MaintenanceMincost(b *testing.B)    { benchMaintenance(b, nettrails.MinCost) }
func BenchmarkDemo1MaintenancePathVector(b *testing.B) { benchMaintenance(b, nettrails.PathVector) }
func BenchmarkDemo1MaintenanceDSR(b *testing.B)        { benchMaintenance(b, nettrails.DSR) }
func BenchmarkDemo1MaintenanceDistVector(b *testing.B) {
	benchMaintenance(b, nettrails.DistanceVector)
}

// BenchmarkDemo2BGPProvenance (E4): legacy-application provenance
// capture: replay RouteViews-style announce/withdraw events through the
// proxied BGP deployment.
func BenchmarkDemo2BGPProvenance(b *testing.B) {
	d, err := nettrails.NewBGPDeployment(
		[]string{"AS1", "AS2", "AS3", "AS4", "AS5"},
		[]nettrails.ASLink{
			{A: "AS1", B: "AS2", Rel: nettrails.PeerOf},
			{A: "AS1", B: "AS3", Rel: nettrails.CustomerOf},
			{A: "AS2", B: "AS4", Rel: nettrails.CustomerOf},
			{A: "AS3", B: "AS5", Rel: nettrails.CustomerOf},
			{A: "AS4", B: "AS5", Rel: nettrails.CustomerOf},
		})
	if err != nil {
		b.Fatal(err)
	}
	events, err := d.GenerateTrace(200, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		var err error
		if ev.Type == 0 {
			err = d.Originate(ev.Origin, ev.Prefix)
		} else {
			// Replaying out of order can withdraw a dead prefix; the
			// speaker treats that as a no-op, which is fine for
			// throughput measurement.
			err = d.Withdraw(ev.Origin, ev.Prefix)
		}
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	b.ReportMetric(float64(done), "events")
}

// BenchmarkQuery* (E5): the three demo query types plus full lineage,
// over a 6-node line (5-hop derivation chains).
func benchQuery(b *testing.B, typ provquery.QueryType) {
	sys := mustSystem(b, nettrails.MinCost, 6, protocols.LineTopology(6, 1))
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n6"), nettrails.Int(5))
	var msgs, bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query.Query(typ, "n1", mc, provquery.Options{})
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Stats.Messages
		bytes += res.Stats.Bytes
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}

func BenchmarkQueryLineage(b *testing.B)    { benchQuery(b, provquery.Lineage) }
func BenchmarkQueryBaseTuples(b *testing.B) { benchQuery(b, provquery.BaseTuples) }
func BenchmarkQueryNodes(b *testing.B)      { benchQuery(b, provquery.Nodes) }
func BenchmarkQueryDerivCount(b *testing.B) { benchQuery(b, provquery.DerivCount) }

// BenchmarkQueryOpt* (E6): the optimization study — caching and
// threshold pruning reduce query traffic (the demo's closing claim).
func benchQueryOpt(b *testing.B, opts provquery.Options) {
	// A wider diamond stack gives multiple alternative derivations so
	// pruning has something to cut.
	edges := []protocols.Edge{
		{A: "n1", B: "n2", Cost: 1}, {A: "n1", B: "n3", Cost: 1},
		{A: "n2", B: "n4", Cost: 1}, {A: "n3", B: "n4", Cost: 1},
		{A: "n4", B: "n5", Cost: 1}, {A: "n4", B: "n6", Cost: 1},
		{A: "n5", B: "n7", Cost: 1}, {A: "n6", B: "n7", Cost: 1},
	}
	sys := mustSystem(b, nettrails.MinCost, 7, edges)
	mc := nettrails.Tuple("mincost", nettrails.Addr("n1"), nettrails.Addr("n7"), nettrails.Int(4))
	var msgs, bytes, hits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query.Query(provquery.BaseTuples, "n1", mc, opts)
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Stats.Messages
		bytes += res.Stats.Bytes
		hits += res.Stats.CacheHits
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
	b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
}

func BenchmarkQueryOptNone(b *testing.B) { benchQueryOpt(b, provquery.Options{}) }
func BenchmarkQueryOptCache(b *testing.B) {
	benchQueryOpt(b, provquery.Options{UseCache: true})
}
func BenchmarkQueryOptPrune(b *testing.B) {
	benchQueryOpt(b, provquery.Options{Threshold: 1})
}
func BenchmarkQueryOptCachePrune(b *testing.B) {
	benchQueryOpt(b, provquery.Options{UseCache: true, Threshold: 1})
}
func BenchmarkQueryOptSequential(b *testing.B) {
	benchQueryOpt(b, provquery.Options{Sequential: true})
}

// BenchmarkScalingMaintenance (E7): full convergence of MINCOST on
// square grids of growing size; reports provenance maintenance overhead
// (prov entries, delta traffic) per network size.
func BenchmarkScalingMaintenance(b *testing.B) {
	for _, side := range []int{2, 3, 4, 5, 6} {
		n := side * side
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var msgs, bytes, prov int
			for i := 0; i < b.N; i++ {
				sys := mustSystem(b, nettrails.MinCost, n, protocols.GridTopology(side, side, 1))
				m, by, _ := sys.Engine.Net.Totals()
				msgs += m
				bytes += by
				for _, addr := range sys.Engine.Nodes() {
					nd, _ := sys.Engine.Node(addr)
					prov += nd.Prov.Statistics().ProvEntries
				}
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(prov)/float64(b.N), "proventries")
		})
	}
}

// BenchmarkScalingQuery (E7): lineage query latency/traffic vs. network
// size (corner-to-corner tuple on the grid).
func BenchmarkScalingQuery(b *testing.B) {
	for _, side := range []int{2, 3, 4, 5, 6} {
		n := side * side
		sys := mustSystem(b, nettrails.MinCost, n, protocols.GridTopology(side, side, 1))
		dist := int64(2 * (side - 1))
		mc := nettrails.Tuple("mincost",
			nettrails.Addr("n1"), nettrails.Addr(protocols.NodeName(n)), nettrails.Int(dist))
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				res, err := sys.Lineage("n1", mc)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Stats.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkCascadeDeletion (E8): the cascading-effect analysis — delete
// a well-connected link after convergence and measure the provenance
// update cascade.
func BenchmarkCascadeDeletion(b *testing.B) {
	side := 4
	n := side * side
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := mustSystem(b, nettrails.MinCost, n, protocols.GridTopology(side, side, 1))
		sys.Engine.Net.ResetTraffic()
		b.StartTimer()
		if err := sys.RemoveLink("n6", "n7", 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		msgs, _, _ := sys.Engine.Net.Totals()
		b.ReportMetric(float64(msgs), "cascade_msgs")
		b.StartTimer()
	}
}

// BenchmarkAblationProvenance{Off,On} (design-choice ablation from
// DESIGN.md): the cost of ExSPAN maintenance itself — full MINCOST
// convergence on a 4x4 grid with provenance tracking disabled vs.
// enabled. ExSPAN's claim is that maintenance is a modest constant
// factor on execution.
func benchAblation(b *testing.B, provenance bool) {
	side := 4
	n := side * side
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(nettrails.MinCost, nettrails.NodeNames(n), engine.Options{
			Seed: 1, Provenance: provenance,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range protocols.GridTopology(side, side, 1) {
			if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunQuiescent()
	}
}

func BenchmarkAblationProvenanceOff(b *testing.B) { benchAblation(b, false) }
func BenchmarkAblationProvenanceOn(b *testing.B)  { benchAblation(b, true) }

// BenchmarkEvalDeltaThroughput: microbenchmark of the single-node
// incremental engine (deltas through a two-way join with aggregate).
func BenchmarkEvalDeltaThroughput(b *testing.B) {
	sys := mustSystem(b, nettrails.MinCost, 2, nil)
	n1, _ := sys.Engine.Node("n1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := int64(i%50 + 1)
		t := nettrails.Tuple("link", nettrails.Addr("n1"), nettrails.Addr("n2"), nettrails.Int(c))
		if err := n1.InsertFact(t); err != nil {
			b.Fatal(err)
		}
		sys.Engine.RunQuiescent()
		if err := n1.DeleteFact(t); err != nil {
			b.Fatal(err)
		}
		sys.Engine.RunQuiescent()
	}
}
