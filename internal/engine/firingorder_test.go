package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/protocols"
)

// orderTrace hashes the in-order stream of every rule firing and every
// remote send the engine's runtimes make. Cross-arm parity rests on
// that order: coalescing, version boundaries and the bytes each shard
// publishes follow from it, and a final-state digest cannot see a
// reordering that converges to the same tables.
type orderTrace struct {
	h      hash.Hash
	events int
}

// tap wraps every node's FireFn and SendFn, calling the originals.
func (tr *orderTrace) tap(e *engine.Engine) {
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		fire, send := n.RT.FireFn, n.RT.SendFn
		n.RT.FireFn = func(f eval.Firing) {
			tr.events++
			fmt.Fprintf(tr.h, "fire %s %s %s %d %s", f.RuleName, addr, f.RID, f.Sign, f.Output.VID())
			for _, in := range f.Inputs {
				fmt.Fprintf(tr.h, " %s", in.VID())
			}
			fmt.Fprintln(tr.h)
			fire(f)
		}
		n.RT.SendFn = func(dst string, d eval.Delta, f eval.Firing) {
			tr.events++
			fmt.Fprintf(tr.h, "send %s %s %s %d\n", addr, dst, d.Tuple.VID(), d.Sign)
			send(dst, d, f)
		}
	}
}

// states appends every node's tables and provenance digest, so firings
// made outside the runtime (the BGP proxy's maybe rules) are pinned too.
func (tr *orderTrace) states(e *engine.Engine) {
	for _, addr := range e.Nodes() {
		n, _ := e.Node(addr)
		for _, tp := range n.RT.Store.Snapshot() {
			fmt.Fprintln(tr.h, tp.String())
		}
		fmt.Fprintf(tr.h, "prov %s %s\n", addr, n.Prov.Digest())
	}
}

func (tr *orderTrace) sum() string { return hex.EncodeToString(tr.h.Sum(nil)) }

// TestFiringOrderPinned pins the derivation and message order of three
// scripted runs through the epoch scheduler: MINCOST and DISTANCEVECTOR
// on a 4×4 grid with seeded link flaps, and BGP originate/withdraw
// under the proxies. The
// digests were recorded by running this test against the evaluator
// that still cloned the binding for every probed row and re-sorted
// min/max groups on every contribution (a checkout of that commit with
// this file copied in): an evaluator rewrite must reproduce them
// exactly. Re-record only for a change that means to reorder firings.
func TestFiringOrderPinned(t *testing.T) {
	// MINCOST's aggregate sees one cost tuple per distinct cost, so its
	// groups never tie; DISTANCEVECTOR's hop tuples name the next hop,
	// so equal-cost routes tie and a group emits several derivations.
	for _, tc := range []struct {
		name, program string
		want          string
	}{
		{"mincost-grid16-flaps", protocols.MinCost, "1a8ee8fe28249f5679985fe73121f3f8d585f21f104f3df41a574a84d4bf3a88"},
		{"distvector-grid16-flaps", protocols.DistanceVector, "9d610bb55f528afd1f7d16f59ba80a9cb2608d9401196c64ae56575c10c6104b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &orderTrace{h: sha256.New()}
			eng, err := engine.New(tc.program, protocols.NodeNames(16), engine.Options{
				Seed: 3, Provenance: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.SetEpochObserver(func() {})
			tr.tap(eng)
			edges := protocols.GridTopology(4, 4, 1)
			for _, e := range edges {
				if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunQuiescent()
			rng := rand.New(rand.NewSource(11))
			for flap := 0; flap < 6; flap++ {
				e := edges[rng.Intn(len(edges))]
				if err := eng.RemoveBiLink(e.A, e.B, e.Cost); err != nil {
					t.Fatal(err)
				}
				eng.RunQuiescent()
				if err := eng.AddBiLink(e.A, e.B, e.Cost); err != nil {
					t.Fatal(err)
				}
				eng.RunQuiescent()
			}
			tr.states(eng)
			if got := tr.sum(); got != tc.want {
				t.Errorf("firing/send order digest over %d events = %s, want %s", tr.events, got, tc.want)
			}
		})
	}
	t.Run("bgp-originate-withdraw", func(t *testing.T) {
		tr := &orderTrace{h: sha256.New()}
		d, err := bgp.NewDeployment([]string{"AS1", "AS2", "AS3", "AS4", "AS5"}, []bgp.ASLink{
			{A: "AS2", B: "AS1", Rel: bgp.Customer},
			{A: "AS3", B: "AS2", Rel: bgp.Customer},
			{A: "AS4", B: "AS2", Rel: bgp.Customer},
			{A: "AS3", B: "AS4", Rel: bgp.Peer},
			{A: "AS4", B: "AS5", Rel: bgp.Customer},
		}, engine.Options{Seed: 5, Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		d.Eng.SetEpochObserver(func() {})
		tr.tap(d.Eng)
		for _, step := range []struct {
			withdraw   bool
			as, prefix string
		}{
			{false, "AS1", "10.0.0.0/24"},
			{false, "AS5", "10.5.0.0/16"},
			{true, "AS1", "10.0.0.0/24"},
			{false, "AS1", "10.0.0.0/24"},
			{true, "AS5", "10.5.0.0/16"},
		} {
			op := d.Originate
			if step.withdraw {
				op = d.Withdraw
			}
			if err := op(step.as, step.prefix); err != nil {
				t.Fatal(err)
			}
		}
		tr.states(d.Eng)
		const want = "239e6ee06f9dfcc13f24c4ce8db7ac5f0daf039ba1253e6bbc7abce395c04715"
		if got := tr.sum(); got != want {
			t.Errorf("firing/send order digest over %d events = %s, want %s", tr.events, got, want)
		}
	})
}
