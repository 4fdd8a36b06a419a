package rel

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestTupleBasics(t *testing.T) {
	tp := NewTuple("link", Addr("n1"), Addr("n2"), Int(3))
	if tp.Arity() != 3 {
		t.Fatalf("arity = %d", tp.Arity())
	}
	if got := tp.String(); got != "link(@n1, n2, 3)" {
		t.Fatalf("String = %q", got)
	}
	if loc, ok := tp.LocCol0(); !ok || loc != "n1" {
		t.Fatalf("LocCol0 = %q %v", loc, ok)
	}
}

func TestNewTupleCopies(t *testing.T) {
	vals := []Value{Int(1)}
	tp := NewTuple("r", vals...)
	vals[0] = Int(9)
	if got, _ := tp.Vals[0].AsInt(); got != 1 {
		t.Fatal("NewTuple aliased input slice")
	}
}

func TestVIDStableAndDistinct(t *testing.T) {
	a := NewTuple("link", Addr("n1"), Addr("n2"), Int(3))
	b := NewTuple("link", Addr("n1"), Addr("n2"), Int(3))
	c := NewTuple("link", Addr("n1"), Addr("n2"), Int(4))
	d := NewTuple("path", Addr("n1"), Addr("n2"), Int(3))
	if a.VID() != b.VID() {
		t.Fatal("identical tuples must share VID")
	}
	if a.VID() == c.VID() || a.VID() == d.VID() {
		t.Fatal("distinct tuples must have distinct VIDs")
	}
}

func TestTupleCompare(t *testing.T) {
	a := NewTuple("a", Int(1))
	b := NewTuple("b", Int(1))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Fatal("relation name must dominate compare")
	}
	short := NewTuple("a", Int(1))
	long := NewTuple("a", Int(1), Int(2))
	if short.Compare(long) >= 0 {
		t.Fatal("shorter prefix tuple must compare less")
	}
	if !a.Equal(NewTuple("a", Int(1))) {
		t.Fatal("Equal failed on identical tuples")
	}
	if a.Equal(long) {
		t.Fatal("Equal must consider arity")
	}
}

func TestTupleLocWithSchema(t *testing.T) {
	s := NewSchema("route", 3, 0, 1)
	tp := NewTuple("route", Addr("n2"), Str("p"), Int(1))
	if loc, ok := tp.Loc(s); !ok || loc != "n2" {
		t.Fatalf("Loc = %q %v", loc, ok)
	}
	noLoc := &Schema{Name: "x", Arity: 1, LocIndex: -1}
	if _, ok := NewTuple("x", Int(1)).Loc(noLoc); ok {
		t.Fatal("LocIndex -1 must yield no location")
	}
}

func TestKeyHashAndKeyEqual(t *testing.T) {
	a := NewTuple("r", Addr("n1"), Str("k"), Int(1))
	b := NewTuple("r", Addr("n1"), Str("k"), Int(2))
	ha, err := a.KeyHash([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.KeyHash([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("tuples agreeing on key columns must hash equal")
	}
	ha2, _ := a.KeyHash([]int{2})
	hb2, _ := b.KeyHash([]int{2})
	if ha2 == hb2 {
		t.Fatal("tuples differing on a key column must hash apart")
	}
	if _, err := a.KeyHash([]int{5}); err == nil {
		t.Fatal("out-of-range key column must error")
	}
}

func TestPropertyTupleCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = randomValue(r, 2)
		}
		tp := Tuple{Rel: "rel" + randString(r), Vals: vals}
		got, err := UnmarshalTuple(MarshalTuple(tp))
		if err != nil {
			return false
		}
		return got.Equal(tp) && got.VID() == tp.VID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTupleErrors(t *testing.T) {
	if _, err := UnmarshalTuple(nil); err == nil {
		t.Fatal("empty input must error")
	}
	good := MarshalTuple(NewTuple("r", Int(1)))
	if _, err := UnmarshalTuple(append(good, 0x00)); err == nil {
		t.Fatal("trailing bytes must error")
	}
	if _, err := UnmarshalTuple(good[:len(good)-1]); err == nil {
		t.Fatal("truncated input must error")
	}
	// Huge declared length must not allocate/panic.
	if _, err := UnmarshalTuple([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("oversized length must error")
	}
}

func TestParseID(t *testing.T) {
	id := HashBytes([]byte("hello"))
	back, err := ParseID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatal("ParseID round trip failed")
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatal("bad hex must error")
	}
	if _, err := ParseID("abcd"); err == nil {
		t.Fatal("short id must error")
	}
	if ZeroID.IsZero() != true || id.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
	if len(id.Short()) != 8 {
		t.Fatalf("Short length = %d", len(id.Short()))
	}
}

func TestHashParts(t *testing.T) {
	a := HashParts([]byte("ab"), []byte("c"))
	b := HashParts([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("HashParts must frame part boundaries")
	}
	if HashParts([]byte("x")) != HashParts([]byte("x")) {
		t.Fatal("HashParts must be deterministic")
	}
}

func TestAppendPartFramesLikeHashParts(t *testing.T) {
	vid := HashBytes([]byte("v"))
	parts := [][]byte{[]byte("mc2"), {}, []byte("n1"), vid[:]}
	var b []byte
	for i, p := range parts {
		if i%2 == 0 {
			b = AppendPart(b, string(p))
		} else {
			b = AppendPart(b, p)
		}
	}
	if HashBytes(b) != HashParts(parts...) {
		t.Fatal("HashBytes over AppendPart framing must equal HashParts")
	}
}

// An identified tuple is the same tuple: the VID it carries is the hash
// of its attributes, and nothing that compares, orders or encodes tuples
// can tell it from a copy that carries none.
func TestIdentifiedTupleIsTheSameTuple(t *testing.T) {
	for _, g := range goldenTuples {
		plain := g.tuple
		id := plain.Identified()
		if id.VID() != plain.VID() || id.VID().String() != g.vid {
			t.Errorf("%s: Identified VID %s, want %s", g.name, id.VID(), g.vid)
		}
		if !id.Equal(plain) || !plain.Equal(id) || id.Compare(plain) != 0 || plain.Compare(id) != 0 {
			t.Errorf("%s: an identified tuple must equal its plain copy", g.name)
		}
		if !bytes.Equal(MarshalTuple(id), MarshalTuple(plain)) || id.String() != plain.String() {
			t.Errorf("%s: an identified tuple must encode and print as its plain copy", g.name)
		}
		if again := id.Identified(); again.VID() != id.VID() {
			t.Errorf("%s: Identified is not idempotent", g.name)
		}
		if n := testing.AllocsPerRun(10, func() { _ = id.VID(); _ = id.Identified() }); n != 0 {
			t.Errorf("%s: reading a carried VID allocates %v times", g.name, n)
		}
		tbl := NewTable(NewSchema(plain.Rel, len(plain.Vals)))
		if tbl.Apply(plain, 1) != Appeared || tbl.Apply(id, 1) != NoChange || !tbl.Contains(plain) || !tbl.Contains(id) {
			t.Errorf("%s: a table must hold plain and identified copies as one row", g.name)
		}
		if row, ok := tbl.Get(plain.VID()); !ok || row.Count != 2 {
			t.Errorf("%s: row = %+v, %v", g.name, row, ok)
		}
	}
}

// TestUnmarshalTupleDeepNesting: a list nested three million levels deep
// (6 MB, well under the transport's frame limit) must come back as
// ErrTooDeep. Before the depth bound the decoder recursed once per
// level and died of a stack overflow, which no recover catches.
func TestUnmarshalTupleDeepNesting(t *testing.T) {
	deep := []byte{1, 'r', 1} // relation "r", arity 1
	deep = append(deep, bytes.Repeat([]byte{byte(KindList), 1}, 3_000_000)...)
	if _, err := UnmarshalTuple(deep); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("deeply nested list: err = %v, want ErrTooDeep", err)
	}
	// The bound itself: maxListDepth levels decode, one more does not.
	nest := func(levels int) Value {
		v := Int(1)
		for i := 0; i < levels; i++ {
			v = List(v)
		}
		return v
	}
	ok := NewTuple("r", nest(maxListDepth))
	if got, err := UnmarshalTuple(MarshalTuple(ok)); err != nil || !got.Equal(ok) {
		t.Fatalf("%d levels: %v", maxListDepth, err)
	}
	if _, err := UnmarshalTuple(MarshalTuple(NewTuple("r", nest(maxListDepth+1)))); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("%d levels: err = %v, want ErrTooDeep", maxListDepth+1, err)
	}
}

// TestUnmarshalTupleHostileCount: a count is checked against the input
// that remains, but each claimed element costs ~90 B of Value, so the
// decoder must not size its destination by the count alone.
func TestUnmarshalTupleHostileCount(t *testing.T) {
	in := []byte{1, 'r', 1, byte(KindList)}
	in = wire.AppendUvarint(in, 1<<20)
	in = append(in, make([]byte, 1<<20)...) // 1 Mi claimed elements, all of kind 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalTuple(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile list decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(in)) {
		t.Fatalf("decoding a %d-byte hostile input allocated %d bytes", len(in), grew)
	}
}
