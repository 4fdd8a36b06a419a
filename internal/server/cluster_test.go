package server

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/simnet"
)

// clusterScript runs one topology script under pub and returns the
// version current after each step: a grid converging link by link, a
// flap, and a fact whose derivations stay local.
func clusterScript(t *testing.T, e *engine.Engine, pub *Publisher) []uint64 {
	t.Helper()
	var marks []uint64
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		marks = append(marks, pub.Current().Version)
	}
	edges := protocols.GridTopology(3, 3, 1)
	for _, ed := range edges {
		step(e.AddBiLink(ed.A, ed.B, ed.Cost))
	}
	step(e.RemoveBiLink(edges[0].A, edges[0].B, edges[0].Cost))
	step(e.AddBiLink(edges[0].A, edges[0].B, edges[0].Cost))
	step(e.InsertFact(churnTuple("n5", 0)))
	return marks
}

// TestOneMemberClusterMatchesPlainEngine: a cluster of one runs the
// same epoch loop as a plain engine plus two exchanges that carry
// nothing, so its publisher mints the same version sequence at the same
// virtual times, with the same per-node digests and sent traffic.
func TestOneMemberClusterMatchesPlainEngine(t *testing.T) {
	nodes := protocols.NodeNames(9)
	run := func(clustered bool) (*Publisher, []uint64) {
		e, err := engine.New(protocols.MinCost, nodes, engine.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if clustered {
			if err := e.EnableCluster(simnet.NewMemCluster(1).Member(0)); err != nil {
				t.Fatal(err)
			}
		}
		pub, err := NewPublisherWithOptions(e, PublisherOptions{Retain: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		return pub, clusterScript(t, e, pub)
	}
	plain, plainMarks := run(false)
	member, memberMarks := run(true)

	if len(plainMarks) != len(memberMarks) {
		t.Fatalf("marks: plain %v, member %v", plainMarks, memberMarks)
	}
	for i := range plainMarks {
		if plainMarks[i] != memberMarks[i] {
			t.Fatalf("step %d: plain at version %d, member at %d", i, plainMarks[i], memberMarks[i])
		}
	}
	final := plain.Current().Version
	if final < 10 {
		t.Fatalf("script minted only %d versions", final)
	}
	for v := uint64(1); v <= final; v++ {
		ps, _ := plain.At(v)
		ms, ok := member.At(v)
		if !ok {
			t.Fatalf("member lacks version %d", v)
		}
		if ps.Time != ms.Time {
			t.Fatalf("version %d: plain at time %d, member at %d", v, ps.Time, ms.Time)
		}
		for _, addr := range nodes {
			pd, _ := ps.NodeDigest(addr)
			md, _ := ms.NodeDigest(addr)
			pi, _ := ps.NodeInfo(addr)
			mi, _ := ms.NodeInfo(addr)
			if pd != md || pi.SentMsgs != mi.SentMsgs {
				t.Fatalf("version %d node %s: plain digest %s sent %d, member digest %s sent %d",
					v, addr, pd, pi.SentMsgs, md, mi.SentMsgs)
			}
		}
	}
	if st := member.Engine().ClusterStats(); st.Rounds == 0 || st.Epochs == 0 {
		t.Fatalf("the member ran no cluster rounds: %+v", st)
	}
}

// TestClusterPublisherServesMemberSlice: on a cluster member, a
// publisher must serve exactly the member's slice. Any other spec would
// freeze replicas whose delta traffic executes at their owners.
func TestClusterPublisherServesMemberSlice(t *testing.T) {
	e, err := engine.New(protocols.MinCost, protocols.NodeNames(6), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableCluster(simnet.NewMemCluster(3).Member(1)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ShardSpec{{}, {Index: 0, Total: 3}, {Index: 1, Total: 2}, {Index: 2, Total: 3}} {
		if _, err := NewPublisherWithOptions(e, PublisherOptions{Shard: spec}); err == nil {
			t.Errorf("shard %s accepted on cluster member 1/3", spec)
		}
	}
	pub, err := NewPublisherWithOptions(e, PublisherOptions{Shard: ShardSpec{Index: 1, Total: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pub.Current().Nodes; len(got) != 2 || got[0] != "n2" || got[1] != "n5" {
		t.Fatalf("member 1/3 publishes %v, want [n2 n5]", got)
	}
	pub.Detach()
}
