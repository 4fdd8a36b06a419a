package rel

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
)

// Golden vectors for the canonical tuple encoding, generated by the
// commit before internal/wire existed. VIDs, chunk blobs, pins
// buckets, the parity digests and /v1/prov/read replies all hash or
// ship these bytes: a change here is a format break, not a refactor.
var goldenTuples = []struct {
	name    string
	tuple   Tuple
	marshal string
	vid     string
}{
	{"int", NewTuple("cost", Int(-7)),
		"04636f73740101f9ffffffffffffff",
		"f5119847e9028297eb4ab340e724bd769364e005"},
	{"float", NewTuple("load", Float(0.375)),
		"046c6f61640102000000000000d83f",
		"b24d02d1d7fe1f4aed19d8792192e7a2a6ef7e23"},
	{"bool", NewTuple("up", Bool(true)),
		"02757001030100000000000000",
		"8ead6cbddd0d3809dbedfc9cedc60445b57ba580"},
	{"empty string", NewTuple("tag", Str("")),
		"03746167010400",
		"22e82f6583641aa72b7822f61da0c8fcd11da183"},
	{"string", NewTuple("tag", Str("héllo")),
		"0374616701040668c3a96c6c6f",
		"50daad45df2b3d716265114e4a76bb1f7047576d"},
	{"addr", NewTuple("link", Addr("n1"), Addr("n2"), Int(3)),
		"046c696e6b0305026e3105026e32010300000000000000",
		"71570105cdc07759692765066e5e75c011e31f63"},
	{"id", NewTuple("prov", IDValue(HashBytes([]byte("x")))),
		"0470726f76010611f6ad8ec52a2984abaafd7c3b516503785c2072",
		"705ef28232c320a62905d5562c4dedc832a958c3"},
	{"nested list", NewTuple("route", Addr("as1"), List(Addr("as2"), List(Int(1), List()), Str(""))),
		"05726f75746502050361733107030503617332070201010000000000000007000400",
		"ca76761fe6f23b8337c231ccd69ded2c9ca0f5fd"},
	{"no values", NewTuple("tick"),
		"047469636b00",
		"1f90a0d84a75117afd090742f9b4249c4468b8f7"},
}

func TestGoldenTupleEncoding(t *testing.T) {
	for _, g := range goldenTuples {
		if got := hex.EncodeToString(MarshalTuple(g.tuple)); got != g.marshal {
			t.Errorf("%s: MarshalTuple\n got %s\nwant %s", g.name, got, g.marshal)
		}
		if got := g.tuple.VID().String(); got != g.vid {
			t.Errorf("%s: VID\n got %s\nwant %s", g.name, got, g.vid)
		}
		back, err := UnmarshalTuple(MarshalTuple(g.tuple))
		if err != nil || !back.Equal(g.tuple) {
			t.Errorf("%s: round trip: %v, %v", g.name, back, err)
		}
	}
}

// KeyHash hashes the value encoding alone (no relation name, no
// arity), so it is pinned separately.
func TestGoldenKeyHash(t *testing.T) {
	tp := NewTuple("link", Addr("n1"), Addr("n2"), Int(3))
	got, err := tp.KeyHash([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(0x1bc0743bb0c1f3c1); got != want {
		t.Errorf("KeyHash = %#x, want %#x", got, want)
	}
}

// FuzzUnmarshalTuple feeds arbitrary bytes to the tuple decoder — what
// a shard puts in a /v1/prov/read reply to the gateway. It must never
// panic, and whatever it accepts must re-encode to exactly its input
// (each tuple has one accepted encoding), compare equal to itself,
// keep its VID across decode → encode → decode, and render. Equal is
// implied by byte-equal encodings but does not imply them: 0.0 and
// -0.0 are Equal and encode differently.
func FuzzUnmarshalTuple(f *testing.F) {
	for _, g := range goldenTuples {
		f.Add(MarshalTuple(g.tuple))
	}
	nested := Str("")
	for range maxListDepth {
		nested = List(nested)
	}
	for _, v := range []Value{Str(""), List(), nested, Float(math.NaN()), Float(math.Copysign(0, -1)), IDValue(HashBytes([]byte("x")))} {
		f.Add(MarshalTuple(NewTuple("seed", v)))
	}
	f.Add([]byte{1, 'r', 1, byte(KindList), 1, byte(KindList), 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x81, 0x00, 0x72, 0x00}) // r() behind a padded name length
	f.Fuzz(func(t *testing.T, in []byte) {
		tp, err := UnmarshalTuple(in)
		if err != nil {
			return
		}
		_ = tp.String()
		if tp.Compare(tp) != 0 {
			t.Fatalf("Compare(t, t) != 0 for %x", in)
		}
		enc := MarshalTuple(tp)
		if !bytes.Equal(enc, in) {
			t.Fatalf("re-encoding of %x is %x", in, enc)
		}
		again, err := UnmarshalTuple(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if !bytes.Equal(MarshalTuple(again), enc) || again.VID() != tp.VID() {
			t.Fatalf("tuple did not round-trip: %x vs %x", MarshalTuple(again), enc)
		}
		if !again.Equal(tp) {
			t.Fatalf("byte-equal encodings %x decode to unequal tuples", enc)
		}
	})
}
