// Package rel implements the relational data model shared by every
// NetTrails component: typed values, tuples, content-addressed tuple
// identifiers (VIDs), schemas, and materialized tables with derivation
// counting. It corresponds to the tuple layer of RapidNet/ExSPAN.
package rel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
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
type Value struct {
	kind Kind
	num  int64 // int; bool (0/1)
	f    float64
	str  string // string; addr
	id   ID
	list []Value
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Str returns a string value. (Value.String is fmt.Stringer's.)
func Str(v string) Value { return Value{kind: KindString, str: v} }

// Addr returns a node-address value used for location attributes.
func Addr(v string) Value { return Value{kind: KindAddr, str: v} }

// IDValue wraps a content hash as a value.
func IDValue(id ID) Value { return Value{kind: KindID, id: id} }

// List returns a list value holding a copy of vs.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return Value{kind: KindList, list: cp}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value has a kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload.
func (v Value) AsInt() (int64, bool) { return v.num, v.kind == KindInt }

// AsFloat returns the float payload; integers convert implicitly.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.num), true
	}
	return 0, false
}

// AsBool returns the boolean payload.
func (v Value) AsBool() (bool, bool) { return v.num != 0, v.kind == KindBool }

// AsString returns the string payload of a string or addr value.
func (v Value) AsString() (string, bool) {
	return v.str, v.kind == KindString || v.kind == KindAddr
}

// AsAddr returns the address payload.
func (v Value) AsAddr() (string, bool) { return v.str, v.kind == KindAddr }

// AsID returns the content-hash payload.
func (v Value) AsID() (ID, bool) { return v.id, v.kind == KindID }

// AsList returns the list payload. The returned slice must not be mutated.
func (v Value) AsList() ([]Value, bool) { return v.list, v.kind == KindList }

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
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		case math.IsNaN(v.f) && !math.IsNaN(o.f):
			return -1
		case !math.IsNaN(v.f) && math.IsNaN(o.f):
			return 1
		}
		return 0
	case KindString, KindAddr:
		return strings.Compare(v.str, o.str)
	case KindID:
		return v.id.Compare(o.id)
	case KindList:
		n := len(v.list)
		if len(o.list) < n {
			n = len(o.list)
		}
		for i := 0; i < n; i++ {
			if c := v.list[i].Compare(o.list[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.list) < len(o.list):
			return -1
		case len(v.list) > len(o.list):
			return 1
		}
		return 0
	}
	return 0
}

// Hash64 returns an FNV-1a hash of the value, suitable for join indexes.
func (v Value) Hash64() uint64 {
	h := fnv.New64a()
	v.hashInto(h)
	return h.Sum64()
}

type hasher interface{ Write(p []byte) (int, error) }

func (v Value) hashInto(h hasher) {
	var kindByte = [1]byte{byte(v.kind)}
	h.Write(kindByte[:])
	switch v.kind {
	case KindInt, KindBool:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.num))
		h.Write(b[:])
	case KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.f))
		h.Write(b[:])
	case KindString, KindAddr:
		h.Write([]byte(v.str))
	case KindID:
		h.Write(v.id[:])
	case KindList:
		for _, e := range v.list {
			e.hashInto(h)
		}
	}
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
		return strconv.FormatInt(v.num, 10)
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindAddr:
		return v.str
	case KindID:
		return v.id.Short()
	}
	return "<invalid>"
}

// AppendLiteral appends the value's NDlog literal, as String renders
// it, to b.
func (v Value) AppendLiteral(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.num, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(b, v.str)
	case KindList:
		b = append(b, '[')
		for i, e := range v.list {
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

// SortValues sorts a slice of values in place by Compare order.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
}

// Arith applies a binary arithmetic operator to two numeric values.
// Integer operands produce integers except for "/" with a remainder,
// which promotes to float. Mixed operands promote to float.
func Arith(op string, a, b Value) (Value, error) {
	if !a.Numeric() || !b.Numeric() {
		return Value{}, fmt.Errorf("rel: arithmetic %q on non-numeric operands %s, %s", op, a.Kind(), b.Kind())
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.num, b.num
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
