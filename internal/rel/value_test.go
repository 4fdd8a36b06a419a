package rel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/wire"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v, ok := Int(42).AsInt(); !ok || v != 42 {
		t.Fatalf("Int accessor: got %v %v", v, ok)
	}
	if v, ok := Float(2.5).AsFloat(); !ok || v != 2.5 {
		t.Fatalf("Float accessor: got %v %v", v, ok)
	}
	if v, ok := Int(3).AsFloat(); !ok || v != 3 {
		t.Fatalf("Int should convert to float: got %v %v", v, ok)
	}
	if v, ok := Bool(true).AsBool(); !ok || !v {
		t.Fatalf("Bool accessor: got %v %v", v, ok)
	}
	if v, ok := Str("hi").AsString(); !ok || v != "hi" {
		t.Fatalf("Str accessor: got %q %v", v, ok)
	}
	if v, ok := Addr("n1").AsAddr(); !ok || v != "n1" {
		t.Fatalf("Addr accessor: got %q %v", v, ok)
	}
	if _, ok := Str("x").AsAddr(); ok {
		t.Fatal("string must not be an addr")
	}
	if _, ok := Addr("x").AsString(); !ok {
		t.Fatal("addr should read as string")
	}
	id := HashBytes([]byte("x"))
	if v, ok := IDValue(id).AsID(); !ok || v != id {
		t.Fatalf("ID accessor: got %v %v", v, ok)
	}
	l := List(Int(1), Str("a"))
	if vs, ok := l.AsList(); !ok || len(vs) != 2 {
		t.Fatalf("List accessor: got %v %v", vs, ok)
	}
	var zero Value
	if zero.IsValid() {
		t.Fatal("zero Value must be invalid")
	}
}

func TestListCopiesInput(t *testing.T) {
	in := []Value{Int(1), Int(2)}
	l := List(in...)
	in[0] = Int(99)
	vs, _ := l.AsList()
	if got, _ := vs[0].AsInt(); got != 1 {
		t.Fatalf("List aliased caller slice: got %d", got)
	}
}

// TestValueLayout pins the union's size and that == on Values stays a
// compile error: a field change that grows the value or makes it
// comparable (so == would compare payload pointers) fails here.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("sizeof(Value) = %d, want 24", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare pointers, not values")
	}
}

// TestAsListAppendsDoNotShare checks that a list's backing array is
// never reachable for writing: two appends to one AsList result must
// give two independent lists and leave the value unchanged.
func TestAsListAppendsDoNotShare(t *testing.T) {
	l := List(Int(1), Int(2))
	vs, _ := l.AsList()
	a := append(vs, Int(3))
	b := append(vs, Int(4))
	if got, _ := a[2].AsInt(); got != 3 {
		t.Fatalf("first append reads %d, want 3", got)
	}
	if got, _ := b[2].AsInt(); got != 4 {
		t.Fatalf("second append reads %d, want 4", got)
	}
	if !l.Equal(List(Int(1), Int(2))) {
		t.Fatalf("appends changed the list: %s", l)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{
		Int(-5), Int(0), Int(7),
		Float(math.Inf(-1)), Float(0), Float(1.5),
		Bool(false), Bool(true),
		Str(""), Str("a"), Str("b"),
		Addr("n1"), Addr("n2"),
		IDValue(HashBytes([]byte("a"))), IDValue(HashBytes([]byte("b"))),
		List(), List(Int(1)), List(Int(1), Int(2)), List(Int(2)),
	}
	for i, a := range vals {
		for j, b := range vals {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab != -ba {
				t.Fatalf("antisymmetry violated for %v vs %v: %d %d", a, b, ab, ba)
			}
			if i == j && ab != 0 {
				t.Fatalf("reflexivity violated for %v", a)
			}
			if ab == 0 != a.Equal(b) {
				t.Fatalf("Equal inconsistent with Compare for %v vs %v", a, b)
			}
		}
	}
	// Transitivity spot check across the whole matrix.
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but a > c", a, b, c)
				}
			}
		}
	}
}

func TestCompareDifferentKinds(t *testing.T) {
	if Int(1).Compare(Float(1)) == 0 {
		t.Fatal("int and float of equal magnitude must not be equal")
	}
	if Str("a").Compare(Addr("a")) == 0 {
		t.Fatal("string and addr must differ")
	}
}

// joinHash is the hash a join index keys a one-column probe by.
func joinHash(v Value) uint64 {
	h, _ := NewTuple("r", v).KeyHash([]int{0})
	return h
}

func TestHashConsistentWithEqual(t *testing.T) {
	a := List(Int(1), Str("x"), Addr("n1"))
	b := List(Int(1), Str("x"), Addr("n1"))
	if joinHash(a) != joinHash(b) {
		t.Fatal("equal values must hash equal")
	}
	c := List(Int(1), Str("x"), Addr("n2"))
	if joinHash(a) == joinHash(c) {
		t.Fatal("distinct values unexpectedly collided (possible, but deterministic test input should not)")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(7), "7"},
		{Float(1.5), "1.5"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Str("hi"), `"hi"`},
		{Addr("n3"), "n3"},
		{List(Int(1), Int(2)), "[1, 2]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestArithInt(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"+", 2, 3, 5}, {"-", 2, 3, -1}, {"*", 4, 3, 12}, {"/", 6, 3, 2}, {"%", 7, 3, 1},
	}
	for _, c := range cases {
		got, err := Arith(c.op, Int(c.a), Int(c.b))
		if err != nil {
			t.Fatalf("%d %s %d: %v", c.a, c.op, c.b, err)
		}
		if n, _ := got.AsInt(); n != c.want {
			t.Errorf("%d %s %d = %v, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithPromotion(t *testing.T) {
	got, err := Arith("/", Int(7), Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := got.AsFloat(); !ok || f != 3.5 {
		t.Fatalf("7/2 should promote to float 3.5, got %v", got)
	}
	got, err = Arith("+", Int(1), Float(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := got.AsFloat(); f != 1.5 {
		t.Fatalf("mixed add: got %v", got)
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith("/", Int(1), Int(0)); err == nil {
		t.Fatal("division by zero must error")
	}
	if _, err := Arith("%", Int(1), Int(0)); err == nil {
		t.Fatal("modulo by zero must error")
	}
	if _, err := Arith("+", Str("a"), Int(1)); err == nil {
		t.Fatal("arith on string must error")
	}
	if _, err := Arith("%", Float(1), Float(2)); err == nil {
		t.Fatal("float modulo must error")
	}
	if _, err := Arith("^", Int(1), Int(2)); err == nil {
		t.Fatal("unknown op must error")
	}
}

// randomValue builds an arbitrary value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(7)
	if depth <= 0 && k == 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return Int(r.Int63n(1000) - 500)
	case 1:
		return Float(r.Float64()*100 - 50)
	case 2:
		return Bool(r.Intn(2) == 0)
	case 3:
		return Str(randString(r))
	case 4:
		return Addr("n" + randString(r))
	case 5:
		return IDValue(HashBytes([]byte(randString(r))))
	default:
		n := r.Intn(4)
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = randomValue(r, depth-1)
		}
		return List(vs...)
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		dec := wire.NewReader(AppendValue(nil, v))
		got := decodeValue(&dec, 0)
		if err := dec.Done("value"); err != nil {
			t.Logf("decode error for %v: %v", v, err)
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHashAgreesWithEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		w := randomValue(r, 3)
		if v.Equal(w) && joinHash(v) != joinHash(w) {
			return false
		}
		// Re-encoding the same value must be deterministic.
		return joinHash(v) == joinHash(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
