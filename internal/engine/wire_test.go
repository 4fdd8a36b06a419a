package engine

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/eval"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// goldenFrames is one frames exchange with both payload shapes: a
// single DeltaMsg carrying provenance and a coalesced DeltaBatch.
func goldenFrames() []wireFrame {
	tup := rel.NewTuple("cost", rel.Addr("n1"), rel.Addr("n2"), rel.Int(7))
	prov := provenance.Entry{VID: tup.VID(), RID: rel.HashBytes([]byte("rid")), RLoc: "n2"}
	return []wireFrame{
		{At: 42, Msg: simnet.Message{From: "n1", To: "n2", Kind: KindDelta, Reliable: true, Size: 33,
			Payload: DeltaMsg{Delta: eval.Delta{Tuple: tup, Sign: 1}, HasProv: true, Prov: prov}}},
		{At: 300, Msg: simnet.Message{From: "n2", To: "n3", Kind: KindDelta, Reliable: true, Size: 99,
			Payload: DeltaBatch{Msgs: []DeltaMsg{
				{Delta: eval.Delta{Tuple: tup, Sign: -1}},
				{Delta: eval.Delta{Tuple: rel.NewTuple("tick"), Sign: 1}},
			}}}},
	}
}

// Golden vectors for the cluster wire codec, generated by the commit
// before internal/wire existed: members of one cluster may run
// different builds, so these bytes are a protocol, not an
// implementation detail.
func TestGoldenWireEncoding(t *testing.T) {
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"frames", encodeFrames(goldenFrames()),
			"022a026e31026e3221011704636f73740305026e3105026e32010700000000000000010138c74aa208d08556acc3b003b6c25fd9b17d239aa77018e21d77931d3ce5fad3c8c49c2fb5b8faf8026e32" +
				"ac02026e32026e336302021704636f73740305026e3105026e32010700000000000000000006047469636b000100"},
		{"no frames", encodeFrames(nil), "00"},
		{"propose", encodePropose(1_000_000, true, false), "01c0843d"},
		{"propose idle changed", encodePropose(0, false, true), "0200"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}

// FuzzDecodeFrames feeds arbitrary bytes to the frames decoder — the
// payload inside a cluster transport frame, past its CRC. It must never
// panic, and whatever it accepts must re-encode to bytes that decode
// and re-encode identically.
func FuzzDecodeFrames(f *testing.F) {
	f.Add(encodeFrames(goldenFrames()))
	f.Add(encodeFrames(nil))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0, wireDeltaBatch, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, in []byte) {
		frames, err := decodeFrames(in)
		if err != nil {
			return
		}
		enc := encodeFrames(frames)
		again, err := decodeFrames(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if len(again) != len(frames) || !bytes.Equal(encodeFrames(again), enc) {
			t.Fatalf("frames did not round-trip: %x vs %x", encodeFrames(again), enc)
		}
	})
}

// A tuple decoded off the cluster wire and the same tuple built in
// process must be one tuple to everything downstream: the VID it
// carries is hashed from the decoded attributes (a frame naming a wrong
// VID changes nothing), and delivering either leaves the node's tables
// and provenance partition byte-identical.
func TestWireTupleIdentity(t *testing.T) {
	local := rel.NewTuple("cost", rel.Addr("n2"), rel.Addr("n1"), rel.Int(7))
	entry := provenance.Entry{VID: local.VID(), RID: rel.HashBytes([]byte("rid")), RLoc: "n1"}
	forged := entry
	forged.VID = rel.HashBytes([]byte("not the tuple"))

	deliver := func(t *testing.T, dm DeltaMsg) *Node {
		t.Helper()
		e := newMincost(t, "n1", "n2")
		n2, _ := e.Node("n2")
		e.dispatch(n2, simnet.Message{From: "n1", To: "n2", Kind: KindDelta, Payload: dm})
		if err := n2.Prov.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return n2
	}
	overWire := func(t *testing.T, dm DeltaMsg) DeltaMsg {
		t.Helper()
		frames, err := decodeFrames(encodeFrames([]wireFrame{{At: 1, Msg: simnet.Message{
			From: "n1", To: "n2", Kind: KindDelta, Reliable: true, Payload: dm}}}))
		if err != nil {
			t.Fatal(err)
		}
		return frames[0].Msg.Payload.(DeltaMsg)
	}
	state := func(n *Node) (tables []rel.Tuple, digest rel.ID, buckets [3][][]byte) {
		for _, name := range []string{"cost", "mincost"} {
			ts, _ := n.Tuples(name)
			tables = append(tables, ts...)
		}
		buckets[0], buckets[1], buckets[2] = n.Prov.View().PersistBuckets()
		return tables, n.Prov.Digest(), buckets
	}

	want := deliver(t, DeltaMsg{Delta: eval.Delta{Tuple: local, Sign: 1}, HasProv: true, Prov: entry})
	wantTables, wantDigest, wantBuckets := state(want)
	if len(wantTables) != 2 {
		t.Fatalf("local delivery left %v, want cost and mincost", wantTables)
	}
	for name, prov := range map[string]provenance.Entry{"honest frame": entry, "frame naming a wrong VID": forged} {
		dm := overWire(t, DeltaMsg{Delta: eval.Delta{Tuple: local, Sign: 1}, HasProv: true, Prov: prov})
		got := dm.Delta.Tuple
		if got.VID() != local.VID() || !got.Equal(local) || !local.Equal(got) || got.Compare(local) != 0 {
			t.Fatalf("%s: decoded %s (vid %s) is not local %s (vid %s)", name, got, got.VID().Short(), local, local.VID().Short())
		}
		n := deliver(t, dm)
		tables, digest, buckets := state(n)
		if len(tables) != len(wantTables) || digest != wantDigest {
			t.Fatalf("%s: state differs from the local delivery: %v, digest %s vs %s", name, tables, digest.Short(), wantDigest.Short())
		}
		for i := range tables {
			if !tables[i].Equal(wantTables[i]) || tables[i].VID() != wantTables[i].VID() {
				t.Fatalf("%s: table row %d: %s vs %s", name, i, tables[i], wantTables[i])
			}
		}
		for d := range buckets {
			if len(buckets[d]) != len(wantBuckets[d]) {
				t.Fatalf("%s: directory %d has %d buckets, want %d", name, d, len(buckets[d]), len(wantBuckets[d]))
			}
			for i := range buckets[d] {
				if !bytes.Equal(buckets[d][i], wantBuckets[d][i]) {
					t.Fatalf("%s: directory %d bucket %d persists differently", name, d, i)
				}
			}
		}
		tbl, _ := n.RT.Store.Table("cost")
		if !tbl.Contains(local) || !tbl.Contains(got) {
			t.Fatalf("%s: table does not find the tuple by both spellings", name)
		}
	}
}
