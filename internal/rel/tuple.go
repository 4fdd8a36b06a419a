package rel

import (
	"fmt"
	"strings"
)

// Tuple is a fact: a relation name plus an ordered list of values.
// By NDlog convention the location attribute, if any, is identified by
// the relation's schema (usually column 0, written @X in rules).
type Tuple struct {
	Rel  string
	Vals []Value
	// vid is the content hash, carried once Identified has minted it.
	// It is set only on the copy Identified returns, never lazily, so a
	// Tuple value stays immutable and safe to share across goroutines;
	// Equal and Compare ignore it.
	vid *ID
}

// NewTuple builds a tuple; the values slice is copied.
func NewTuple(relName string, vals ...Value) Tuple {
	cp := make([]Value, len(vals))
	copy(cp, vals)
	return Tuple{Rel: relName, Vals: cp}
}

// Arity returns the number of attributes.
func (t Tuple) Arity() int { return len(t.Vals) }

// Equal reports deep equality of relation name and all values.
func (t Tuple) Equal(o Tuple) bool {
	if t.Rel != o.Rel || len(t.Vals) != len(o.Vals) {
		return false
	}
	for i := range t.Vals {
		if !t.Vals[i].Equal(o.Vals[i]) {
			return false
		}
	}
	return true
}

// Compare totally orders tuples by relation name then attribute values.
func (t Tuple) Compare(o Tuple) int {
	if c := strings.Compare(t.Rel, o.Rel); c != 0 {
		return c
	}
	n := len(t.Vals)
	if len(o.Vals) < n {
		n = len(o.Vals)
	}
	for i := 0; i < n; i++ {
		if c := t.Vals[i].Compare(o.Vals[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t.Vals) < len(o.Vals):
		return -1
	case len(t.Vals) > len(o.Vals):
		return 1
	}
	return 0
}

// tupleScratch sizes the stack buffer a tuple encoding is built in when
// it is hashed or copied out at its exact size: most tuples fit, and one
// that does not spills to the heap through append.
const tupleScratch = 256

// VID returns the tuple's content hash — its vertex ID in the provenance
// graph. Identical tuples always share a VID, across nodes and runs. An
// Identified tuple answers from the hash it carries.
func (t Tuple) VID() ID {
	if t.vid != nil {
		return *t.vid
	}
	var scratch [tupleScratch]byte
	return HashBytes(AppendTuple(scratch[:0], t))
}

// Identified returns t carrying its VID, hashing it now unless t already
// does. A tuple is identified where it enters long-lived state (a table
// row, a delta, a firing's head, a pin) and the copies made from there
// on read the hash instead of re-encoding the tuple. The hash is always
// computed here from Rel and Vals, never accepted from outside.
func (t Tuple) Identified() Tuple {
	if t.vid == nil {
		vid := t.VID()
		t.vid = &vid
	}
	return t
}

// String renders the tuple in NDlog syntax, marking the location
// attribute of column 0 when it is an address: rel(@loc, v1, ...).
func (t Tuple) String() string {
	var buf [128]byte
	return string(t.AppendLiteral(buf[:0]))
}

// AppendLiteral appends the tuple in NDlog syntax, as String renders
// it, to b.
func (t Tuple) AppendLiteral(b []byte) []byte {
	b = append(b, t.Rel...)
	b = append(b, '(')
	for i, v := range t.Vals {
		if i > 0 {
			b = append(b, ", "...)
		}
		if i == 0 && v.Kind() == KindAddr {
			b = append(b, '@')
		}
		b = v.AppendLiteral(b)
	}
	return append(b, ')')
}

// Loc returns the tuple's location attribute per the schema; ok is false
// when the relation has no location attribute or the column is not an
// address.
func (t Tuple) Loc(s *Schema) (string, bool) {
	if s == nil || s.LocIndex < 0 || s.LocIndex >= len(t.Vals) {
		return "", false
	}
	return t.Vals[s.LocIndex].AsAddr()
}

// LocCol0 returns the address in column 0, the overwhelmingly common
// NDlog convention, without consulting a schema.
func (t Tuple) LocCol0() (string, bool) {
	if len(t.Vals) == 0 {
		return "", false
	}
	return t.Vals[0].AsAddr()
}

// KeyHash hashes the projection of t onto the given columns (used for
// primary-key replacement semantics and join indexes).
func (t Tuple) KeyHash(cols []int) (uint64, error) {
	var scratch [tupleScratch]byte
	b := scratch[:0]
	for _, c := range cols {
		if c < 0 || c >= len(t.Vals) {
			return 0, fmt.Errorf("rel: key column %d out of range for %s/%d", c, t.Rel, len(t.Vals))
		}
		b = AppendValue(b, t.Vals[c])
	}
	return HashBytes(b).Hash64(), nil
}

// Hash64 folds the first 8 bytes of an ID into a uint64.
func (id ID) Hash64() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(id[i]) << (8 * uint(i))
	}
	return u
}
