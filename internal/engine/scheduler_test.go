// Determinism and correctness tests for the epoch scheduler: the drain
// RunQuiescent uses once an epoch observer is attached must reach the
// state of the serial Net.Run loop.
// They live in the external test package so they can reuse the demo
// protocols and topology generators (protocols imports engine).
package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/rel"
	"repro/internal/simnet"
)

func tupleAddr2(relName, a, b string) rel.Tuple {
	return rel.NewTuple(relName, rel.Addr(a), rel.Addr(b))
}

// newEngine builds an engine that drains through the serial loop, or,
// with epochLoop, through the epoch scheduler: a no-op epoch observer
// is what selects it.
func newEngine(t testing.TB, program string, nodes []string, seed int64, epochLoop bool) *engine.Engine {
	t.Helper()
	eng, err := engine.New(program, nodes, engine.Options{
		Seed: seed, Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochLoop {
		eng.SetEpochObserver(func() {})
	}
	return eng
}

// buildConverged runs a protocol to convergence on a topology through
// the chosen drain, optionally exercising churn (a link failure and
// repair mid-run, the paper's Figure 3 scenario).
func buildConverged(t testing.TB, program string, n int, edges []protocols.Edge, epochLoop, churn bool) *engine.Engine {
	t.Helper()
	eng := newEngine(t, program, protocols.NodeNames(n), 7, epochLoop)
	for _, e := range edges {
		if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
			t.Fatal(err)
		}
	}
	if churn {
		mid := edges[len(edges)/2]
		if err := eng.RemoveBiLink(mid.A, mid.B, mid.Cost); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddBiLink(mid.A, mid.B, mid.Cost); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunQuiescent()
	return eng
}

// fingerprint renders every node's full table state plus its
// provenance-partition digest, keyed by node address.
func fingerprint(t testing.TB, e *engine.Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, addr := range e.Nodes() {
		n, ok := e.Node(addr)
		if !ok {
			t.Fatalf("missing node %s", addr)
		}
		var sb strings.Builder
		for _, tup := range n.RT.Store.Snapshot() {
			sb.WriteString(tup.String())
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "prov-digest:%v\n", n.Prov.Digest())
		out[addr] = sb.String()
	}
	return out
}

func requireIdentical(t *testing.T, serial, epoch *engine.Engine) {
	t.Helper()
	sf, pf := fingerprint(t, serial), fingerprint(t, epoch)
	if len(sf) != len(pf) {
		t.Fatalf("node sets differ: %d vs %d", len(sf), len(pf))
	}
	for addr, want := range sf {
		if got := pf[addr]; got != want {
			t.Errorf("node %s diverged between the serial and the epoch drain:\nserial:\n%s\nepoch:\n%s", addr, want, got)
		}
	}
}

// TestParallelDeterminism is the determinism regression required of
// the epoch scheduler: same seed, the serial loop and the epoch loop —
// the two drains an engine has, run side by side — must produce
// identical per-node snapshots and provenance-store contents, across
// protocols, topologies, and churn.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		program string
		n       int
		edges   []protocols.Edge
		churn   bool
	}{
		{"mincost-grid16", protocols.MinCost, 16, protocols.GridTopology(4, 4, 1), false},
		{"mincost-grid16-churn", protocols.MinCost, 16, protocols.GridTopology(4, 4, 1), true},
		{"pathvector-ring8", protocols.PathVector, 8, protocols.RingTopology(8, 1), false},
		{"pathvector-ring8-churn", protocols.PathVector, 8, protocols.RingTopology(8, 1), true},
		{"distvector-line8", protocols.DistanceVector, 8, protocols.LineTopology(8, 1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := buildConverged(t, tc.program, tc.n, tc.edges, false, tc.churn)
			epoch := buildConverged(t, tc.program, tc.n, tc.edges, true, tc.churn)
			requireIdentical(t, serial, epoch)
		})
	}
}

// TestParallelCoalescingReducesMessages verifies the per-link
// coalescing actually batches wire messages: the epoch drain must
// complete with fewer delta messages than the serial drain beside it
// while moving the same payload bytes.
func TestParallelCoalescingReducesMessages(t *testing.T) {
	edges := protocols.GridTopology(4, 4, 1)
	serial := buildConverged(t, protocols.MinCost, 16, edges, false, false)
	epoch := buildConverged(t, protocols.MinCost, 16, edges, true, false)

	sm, sb, _ := serial.Net.Totals()
	pm, pb, _ := epoch.Net.Totals()
	if pm >= sm {
		t.Errorf("epoch drain sent %d messages, serial %d: coalescing should reduce the count", pm, sm)
	}
	if pb != sb {
		t.Errorf("payload bytes diverged: epoch %d, serial %d", pb, sb)
	}
}

// TestReentrantRunQuiescentFromService covers re-entrant drains: a
// service handler that inserts a fact mid-drain triggers a nested
// RunQuiescent (Engine.InsertFact always quiesces). Serially that
// nests Net.Run; under the epoch scheduler the nested call defers to
// the active drain. Both must converge to the same state.
func TestReentrantRunQuiescentFromService(t *testing.T) {
	build := func(epochLoop bool) *engine.Engine {
		eng := newEngine(t, protocols.MinCost, protocols.NodeNames(4), 1, epochLoop)
		if err := eng.RegisterService("poke", func(n *engine.Node, m simnet.Message) {
			err := n.Engine().InsertFact(rel.NewTuple("link",
				rel.Addr("n3"), rel.Addr("n4"), rel.Int(1)))
			if err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		// Schedule a poke to land in the middle of the convergence
		// cascade the AddBiLink calls below kick off.
		eng.Net.After(simnet.Millisecond, func() {
			eng.Net.Send(simnet.Message{From: "n1", To: "n2", Kind: "poke", Reliable: true})
		})
		if err := eng.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddBiLink("n2", "n3", 1); err != nil {
			t.Fatal(err)
		}
		eng.RunQuiescent()
		return eng
	}
	serial := build(false)
	epoch := build(true)
	// The mid-drain insert must have taken effect in both modes…
	for _, eng := range []*engine.Engine{serial, epoch} {
		n3, _ := eng.Node("n3")
		links, err := n3.Tuples("link")
		if err != nil || len(links) != 2 {
			t.Fatalf("links at n3 = %v (%v), want n3→n2 and n3→n4", links, err)
		}
	}
	// …and both modes must agree on the full converged state.
	requireIdentical(t, serial, epoch)
}

// TestParallelSoftStateExpiry drives a program with a finite-lifetime
// relation through both drains: under the epoch scheduler expiry timers
// execute inline between delta runs and must behave exactly as in the
// serial loop.
func TestParallelSoftStateExpiry(t *testing.T) {
	src := `
materialize(ping, 2, infinity, keys(1,2)).
materialize(seen, infinity, infinity, keys(1,2)).
p1 seen(@D,S) :- ping(@S,D).
`
	build := func(epochLoop bool) *engine.Engine {
		eng := newEngine(t, src, []string{"n1", "n2"}, 1, epochLoop)
		n1, _ := eng.Node("n1")
		if err := n1.InsertFact(tupleAddr2("ping", "n1", "n2")); err != nil {
			t.Fatal(err)
		}
		eng.RunQuiescent()
		return eng
	}
	for _, epochLoop := range []bool{false, true} {
		eng := build(epochLoop)
		// The ping tuple has a 2-second lifetime; after quiescence the
		// expiry timer has fired and retracted it, cascading across the
		// network to the derived seen tuple at n2.
		n1, _ := eng.Node("n1")
		n2, _ := eng.Node("n2")
		if ts, err := n1.Tuples("ping"); err != nil || len(ts) != 0 {
			t.Errorf("epoch loop %v: ping at n1 = %v (%v) after expiry, want empty", epochLoop, ts, err)
		}
		if ts, err := n2.Tuples("seen"); err != nil || len(ts) != 0 {
			t.Errorf("epoch loop %v: seen at n2 = %v (%v) after expiry, want empty", epochLoop, ts, err)
		}
	}
}
