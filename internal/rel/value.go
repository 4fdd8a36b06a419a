// Package rel implements the relational data model shared by every
// NetTrails component: typed values, tuples, content-addressed tuple
// identifiers (VIDs), schemas, and materialized tables with derivation
// counting. It corresponds to the tuple layer of RapidNet/ExSPAN.
package rel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the value types supported by NDlog.
type Kind uint8

// Supported value kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindAddr // a node address (location specifier values)
	KindID   // a content hash (VID / RID)
	KindList // an ordered list of values (e.g. AS paths)
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindAddr:
		return "addr"
	case KindID:
		return "id"
	case KindList:
		return "list"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed NDlog value. The zero Value is invalid.
// Values are immutable once constructed; List never aliases caller slices.
//
// A Value is a 24-byte tagged union: the kind, one word w and one
// pointer p. w holds an int or bool, a float's bits, or a string's or
// list's length; p points at a string's bytes, a list's first element
// (its capacity equals its length) or a boxed ID. Two Values cannot be
// compared with ==, and reflect.DeepEqual compares their pointers, not
// what they point at: compare with Equal or by encoding.
type Value struct {
	_    [0]func() // not comparable
	kind Kind
	w    uint64
	p    unsafe.Pointer
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, w: n}
}

// Str returns a string value. (Value.String is fmt.Stringer's.)
func Str(v string) Value { return strValue(KindString, v) }

// Addr returns a node-address value used for location attributes.
func Addr(v string) Value { return strValue(KindAddr, v) }

func strValue(k Kind, s string) Value {
	return Value{kind: k, w: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// IDValue wraps a content hash as a value.
func IDValue(id ID) Value {
	box := new(ID)
	*box = id
	return Value{kind: KindID, p: unsafe.Pointer(box)}
}

// List returns a list value holding a copy of vs.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return listValue(cp)
}

// listValue wraps list without copying it; only its first len elements
// stay reachable.
func listValue(list []Value) Value {
	return Value{kind: KindList, w: uint64(len(list)), p: unsafe.Pointer(unsafe.SliceData(list))}
}

// str, id and list read the payload of a value already known to be of
// their kind.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.w)) }

func (v Value) id() ID { return *(*ID)(v.p) }

func (v Value) list() []Value { return unsafe.Slice((*Value)(v.p), int(v.w)) }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value has a kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.w), true
}

// AsFloat returns the float payload; integers convert implicitly.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.w), true
	case KindInt:
		return float64(int64(v.w)), true
	}
	return 0, false
}

// AsBool returns the boolean payload.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.w != 0, true
}

// AsString returns the string payload of a string or addr value.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString && v.kind != KindAddr {
		return "", false
	}
	return v.str(), true
}

// AsAddr returns the address payload.
func (v Value) AsAddr() (string, bool) {
	if v.kind != KindAddr {
		return "", false
	}
	return v.str(), true
}

// AsID returns the content-hash payload.
func (v Value) AsID() (ID, bool) {
	if v.kind != KindID {
		return ID{}, false
	}
	return v.id(), true
}

// AsList returns the list payload. The returned slice must not be
// mutated; its capacity equals its length, so appending to it copies.
func (v Value) AsList() ([]Value, bool) {
	if v.kind != KindList {
		return nil, false
	}
	return v.list(), true
}

// Numeric reports whether the value is an int or float.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports deep equality between two values. Ints and floats of
// equal magnitude are distinct values (different kinds).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare defines a total order over all values: first by kind, then by
// payload. Lists compare lexicographically.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt, KindBool:
		return cmp.Compare(int64(v.w), int64(o.w))
	case KindFloat:
		// cmp.Compare orders NaN first and -0.0 equal to 0.0.
		return cmp.Compare(math.Float64frombits(v.w), math.Float64frombits(o.w))
	case KindString, KindAddr:
		return strings.Compare(v.str(), o.str())
	case KindID:
		return v.id().Compare(o.id())
	case KindList:
		return slices.CompareFunc(v.list(), o.list(), Value.Compare)
	}
	return 0
}

// String renders the value in NDlog literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindFloat, KindString, KindList:
		var buf [64]byte
		return string(v.AppendLiteral(buf[:0]))
	}
	return v.scalarString()
}

// scalarString renders the kinds whose literal needs no formatting
// buffer.
func (v Value) scalarString() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.w), 10)
	case KindBool:
		if v.w != 0 {
			return "true"
		}
		return "false"
	case KindAddr:
		return v.str()
	case KindID:
		return v.id().Short()
	}
	return "<invalid>"
}

// AppendLiteral appends the value's NDlog literal, as String renders
// it, to b.
func (v Value) AppendLiteral(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, int64(v.w), 10)
	case KindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(v.w), 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(b, v.str())
	case KindList:
		b = append(b, '[')
		for i, e := range v.list() {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = e.AppendLiteral(b)
		}
		return append(b, ']')
	default:
		return append(b, v.scalarString()...)
	}
}

// Arith applies a binary arithmetic operator to two numeric values.
// Integer operands produce integers except for "/" with a remainder,
// which promotes to float. Mixed operands promote to float.
func Arith(op string, a, b Value) (Value, error) {
	if !a.Numeric() || !b.Numeric() {
		return Value{}, fmt.Errorf("rel: arithmetic %q on non-numeric operands %s, %s", op, a.Kind(), b.Kind())
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := int64(a.w), int64(b.w)
		switch op {
		case "+":
			return Int(x + y), nil
		case "-":
			return Int(x - y), nil
		case "*":
			return Int(x * y), nil
		case "/":
			if y == 0 {
				return Value{}, fmt.Errorf("rel: division by zero")
			}
			if x%y == 0 {
				return Int(x / y), nil
			}
			return Float(float64(x) / float64(y)), nil
		case "%":
			if y == 0 {
				return Value{}, fmt.Errorf("rel: modulo by zero")
			}
			return Int(x % y), nil
		}
		return Value{}, fmt.Errorf("rel: unknown operator %q", op)
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "/":
		if y == 0 {
			return Value{}, fmt.Errorf("rel: division by zero")
		}
		return Float(x / y), nil
	case "%":
		return Value{}, fmt.Errorf("rel: modulo on float operands")
	}
	return Value{}, fmt.Errorf("rel: unknown operator %q", op)
}
