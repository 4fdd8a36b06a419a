package rel

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// Binary codec for values and tuples. The encoding is deterministic (the
// same value always encodes to the same bytes), which makes it usable for
// both wire transfer and content hashing (VIDs).

// AppendValue appends the canonical binary encoding of v to b.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindInt, KindBool, KindFloat:
		b = wire.AppendUint64(b, v.w)
	case KindString, KindAddr:
		b = wire.AppendString(b, v.str())
	case KindID:
		id := v.id()
		b = append(b, id[:]...)
	case KindList:
		b = wire.AppendUvarint(b, v.w)
		for _, e := range v.list() {
			b = AppendValue(b, e)
		}
	}
	return b
}

// maxListDepth bounds list nesting in decoded input. NDlog values nest
// one or two levels (an AS path is a list of addresses); the decoder
// recurses per level, and Go cannot recover from a stack overflow, so
// an unbounded depth would let a few megabytes from a peer kill the
// process.
const maxListDepth = 32

// ErrTooDeep is the decode error for lists nested beyond maxListDepth.
var ErrTooDeep = errors.New("rel: lists nested too deep")

// decodeValue takes one value from r; a failure is recorded on r and
// the returned value is then meaningless. What it keeps is copied out
// of r's buffer, which may be a read-only mapping closed later.
func decodeValue(r *wire.Reader, depth int) Value {
	k := Kind(r.Byte("value kind"))
	switch k {
	case KindInt, KindBool:
		return Value{kind: k, w: r.Uint64("int value")}
	case KindFloat:
		return Value{kind: k, w: r.Uint64("float value")}
	case KindString, KindAddr:
		return strValue(k, r.String("string value"))
	case KindID:
		return IDValue(DecodeID(r, "id value"))
	case KindList:
		if depth == maxListDepth {
			r.Failf("%w", ErrTooDeep)
			return Value{}
		}
		n := r.Count("list length", math.MaxInt)
		list := make([]Value, 0, wire.Prealloc(n))
		for i := 0; i < n && r.Err() == nil; i++ {
			list = append(list, decodeValue(r, depth+1))
		}
		return listValue(list)
	default:
		r.Failf("unknown value kind %d", k)
		return Value{}
	}
}

// DecodeID takes one fixed-width ID from r (zero after a failure).
func DecodeID(r *wire.Reader, what string) (id ID) {
	copy(id[:], r.Fixed(what, len(id)))
	return id
}

// AppendTuple appends the canonical binary encoding of t to b.
func AppendTuple(b []byte, t Tuple) []byte {
	b = wire.AppendString(b, t.Rel)
	b = wire.AppendUvarint(b, uint64(len(t.Vals)))
	for _, v := range t.Vals {
		b = AppendValue(b, v)
	}
	return b
}

// DecodeTuple takes one tuple from r; a failure is recorded on r and
// the returned tuple is then meaningless.
func DecodeTuple(r *wire.Reader) Tuple {
	name := r.String("relation name")
	n := r.Count("arity", math.MaxInt)
	vals := make([]Value, 0, wire.Prealloc(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		vals = append(vals, decodeValue(r, 0))
	}
	return Tuple{Rel: name, Vals: vals}
}

// MarshalTuple returns the canonical binary encoding of t.
func MarshalTuple(t Tuple) []byte {
	var scratch [tupleScratch]byte
	return bytes.Clone(AppendTuple(scratch[:0], t))
}

// UnmarshalTuple decodes a tuple from b, requiring full consumption.
func UnmarshalTuple(b []byte) (Tuple, error) {
	r := wire.NewReader(b)
	t := DecodeTuple(&r)
	if err := r.Done("tuple"); err != nil {
		return Tuple{}, fmt.Errorf("rel: unmarshal tuple: %w", err)
	}
	return t, nil
}
