package server

import (
	"reflect"
	"testing"

	"repro/client"
	"repro/internal/provquery"
)

// TestProvReadReach: on shard 0 of the 3x3 grid (n1, n4, n7), a read's
// reach is the breadth-first closure of what the walk can go on to
// inside the shard — derivations in the order the vertex lists them,
// inputs in the execution's order, each execution once per response —
// and a budget cuts that same sequence short without touching the
// reads' own results.
func TestProvReadReach(t *testing.T) {
	pub, err := NewPublisherWithOptions(buildGrid(t, 3), PublisherOptions{Shard: ShardSpec{Index: 0, Total: 3}})
	if err != nil {
		t.Fatal(err)
	}
	snap := pub.Current()
	lit, err := provquery.ParseTupleLiteral("mincost(@'n1','n9',4)")
	if err != nil {
		t.Fatal(err)
	}
	vid := lit.VID().String()
	ops := []client.ProvReadOp{
		{Op: ProvReadVertex, Loc: "n1", ID: vid},
		{Op: ProvReadVertex, Loc: "n2", ID: vid}, // shard 1's node: no reach
	}
	full := snap.provRead(ops, MaxProvReads)
	if full[1].Err != client.CodeWrongShard || full[1].Reach != nil {
		t.Fatalf("misdirected read answered %+v", full[1])
	}

	// The documented order, recomputed from the wire data alone.
	owned := map[string]bool{"n1": true, "n4": true, "n7": true}
	byKey := map[[2]string]client.ProvReach{}
	for _, e := range full[0].Reach {
		if !owned[e.Loc] {
			t.Fatalf("reach left the shard: %s@%s", e.RID, e.Loc)
		}
		k := [2]string{e.Loc, e.RID}
		if _, dup := byKey[k]; dup {
			t.Fatalf("%s@%s shipped twice", e.RID, e.Loc)
		}
		byKey[k] = e
	}
	var want [][2]string
	seen := map[[2]string]bool{}
	queue := func(derivs []client.ProvDeriv) {
		for _, d := range derivs {
			if k := [2]string{d.RLoc, d.RID}; d.RID != "" && owned[d.RLoc] && !seen[k] {
				seen[k] = true
				want = append(want, k)
			}
		}
	}
	queue(full[0].Derivs)
	for i := 0; i < len(want); i++ {
		e, ok := byKey[want[i]]
		if !ok {
			t.Fatalf("reach lacks %v, which the walk can go on to inside the shard", want[i])
		}
		for _, in := range e.Inputs {
			queue(in.Derivs)
		}
	}
	var got [][2]string
	for _, e := range full[0].Reach {
		got = append(got, [2]string{e.Loc, e.RID})
	}
	if len(got) < 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reach order %v, want %v", got, want)
	}

	reached := len(full[0].Reach)
	cut := snap.provRead(ops, 2)
	if !reflect.DeepEqual(cut[0].Reach, full[0].Reach[:2]) || cut[1].Reach != nil {
		t.Fatalf("budget 2 shipped %+v / %+v, want the first two of the full reach", cut[0].Reach, cut[1].Reach)
	}
	for i := range cut {
		cut[i].Reach, full[i].Reach = nil, nil
	}
	if !reflect.DeepEqual(cut, full) {
		t.Fatalf("the budget changed the reads' own results:\n%+v\nvs\n%+v", cut, full)
	}

	// An exec read's reach starts at its inputs, and a later read ships
	// nothing an earlier one already did: together the two reads ship the
	// closure, less the execution the exec read answers itself.
	d := full[0].Derivs[0]
	if !owned[d.RLoc] {
		t.Fatalf("first derivation %+v ran outside the shard", d)
	}
	rid := d.RID
	ops = []client.ProvReadOp{
		{Op: client.ProvReadExec, Loc: d.RLoc, ID: rid},
		{Op: ProvReadVertex, Loc: "n1", ID: vid},
	}
	res := snap.provRead(ops, MaxProvReads)
	if !res[0].ExecOK || len(res[0].Reach) == 0 {
		t.Fatalf("exec read %s answered %+v", rid, res[0])
	}
	for _, e := range res[0].Reach {
		if e.RID == rid {
			t.Fatalf("exec read %s ships itself in its reach", rid)
		}
	}
	if n := len(res[0].Reach) + len(res[1].Reach); n != reached-1 {
		t.Fatalf("two reads shipped %d executions, want %d", n, reached-1)
	}
}
