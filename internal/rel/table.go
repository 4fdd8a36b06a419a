package rel

import (
	"fmt"
	"sort"
)

// Transition describes how a delta changed a row's visibility.
type Transition uint8

// Transition outcomes of applying a delta to a table.
const (
	// NoChange: the row existed before and still exists (count moved
	// between positive values), or a delete removed a non-final support.
	NoChange Transition = iota
	// Appeared: the row became visible (count went 0 -> positive).
	Appeared
	// Disappeared: the row vanished (count went positive -> 0).
	Disappeared
	// Rejected: a delete targeted a tuple that is not present.
	Rejected
)

func (tr Transition) String() string {
	switch tr {
	case NoChange:
		return "nochange"
	case Appeared:
		return "appeared"
	case Disappeared:
		return "disappeared"
	case Rejected:
		return "rejected"
	}
	return "unknown"
}

// Row is one materialized tuple with its derivation count (the number of
// currently valid derivations supporting it — counting-based incremental
// view maintenance per ExSPAN). Tuple is never written once the row
// exists: the table's chunks, and every frozen version, point at it
// (enforced by the frozenwrite analyzer).
type Row struct {
	Tuple Tuple
	Count int
}

// Table is a materialized relation instance at one node: a set of rows
// keyed by VID, with optional hash indexes on column subsets for joins.
type Table struct {
	schema  *Schema
	rows    map[ID]*Row
	indexes map[string]*index // key: canonical column-list string
	// version counts visibility transitions (Appeared/Disappeared), so
	// snapshot publishers can skip re-copying unchanged tables.
	version uint64

	// chunks is the persistent sorted spine of visible tuples (see
	// frozen.go): maintained incrementally on every visibility
	// transition, handed off wholesale by Freeze. gen is the current
	// write generation; chunks whose gen is older are shared with a
	// frozen version and are copied before any in-place edit. spineGen
	// tracks the generation the chunk-pointer slice itself was last
	// copied for.
	chunks   []*chunk
	gen      uint64
	spineGen uint64
	frozen   *Frozen
}

type index struct {
	cols    []int
	buckets map[uint64][]ID
}

// NewTable creates an empty table for the schema.
func NewTable(s *Schema) *Table {
	return &Table{schema: s, rows: map[ID]*Row{}, indexes: map[string]*index{}, gen: 1, spineGen: 1}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Version returns the visibility-transition counter: it increases
// exactly when the set of visible tuples changes, so two equal versions
// of the same table imply identical Tuples() output.
func (t *Table) Version() uint64 { return t.version }

// Len returns the number of visible rows.
func (t *Table) Len() int { return len(t.rows) }

// TotalCount returns the sum of derivation counts over all rows.
func (t *Table) TotalCount() int {
	n := 0
	for _, r := range t.rows {
		n += r.Count
	}
	return n
}

// Get returns the row for the tuple with the given VID.
func (t *Table) Get(vid ID) (*Row, bool) {
	r, ok := t.rows[vid]
	return r, ok
}

// Contains reports whether an identical tuple is visible.
func (t *Table) Contains(tp Tuple) bool {
	_, ok := t.rows[tp.VID()]
	return ok
}

// appendColsKey appends the canonical name of an index's column list.
func appendColsKey(b []byte, cols []int) []byte {
	for _, c := range cols {
		b = append(b, byte('0'+c/10), byte('0'+c%10), ',')
	}
	return b
}

// EnsureIndex creates (or reuses) a hash index on the given columns and
// backfills it from the current rows.
func (t *Table) EnsureIndex(cols []int) error {
	k := string(appendColsKey(nil, cols))
	if _, ok := t.indexes[k]; ok {
		return nil
	}
	for _, c := range cols {
		if c < 0 || c >= t.schema.Arity {
			return fmt.Errorf("rel: index column %d out of range for %s/%d", c, t.schema.Name, t.schema.Arity)
		}
	}
	idx := &index{cols: append([]int(nil), cols...), buckets: map[uint64][]ID{}}
	// Backfill in sorted-VID order: bucket contents then have one
	// run-independent order, so Probe (and every join built on it)
	// iterates identically across runs. Backfilling straight from the
	// row-map range would capture Go's randomized iteration order.
	vids := make([]ID, 0, len(t.rows))
	for vid := range t.rows {
		vids = append(vids, vid)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i].Compare(vids[j]) < 0 })
	for _, vid := range vids {
		h, err := t.rows[vid].Tuple.KeyHash(idx.cols)
		if err != nil {
			return err
		}
		idx.buckets[h] = append(idx.buckets[h], vid)
	}
	t.indexes[k] = idx
	return nil
}

// Probe calls fn for each visible row whose projection onto cols
// matches the given key values, in an order that does not depend on
// the run. fn must not modify the table. An index on cols must exist
// (EnsureIndex); without one Probe falls back to a sorted scan.
func (t *Table) Probe(cols []int, key []Value, fn func(*Row)) {
	if len(cols) != len(key) {
		return
	}
	var name [32]byte
	if idx, ok := t.indexes[string(appendColsKey(name[:0], cols))]; ok {
		// The key values in column order encode exactly as KeyHash
		// encodes a row's projection, so they hash to the row's bucket.
		var scratch [tupleScratch]byte
		b := scratch[:0]
		for _, v := range key {
			b = AppendValue(b, v)
		}
		for _, vid := range idx.buckets[HashBytes(b).Hash64()] {
			if r, ok := t.rows[vid]; ok && matchCols(r.Tuple, cols, key) {
				fn(r)
			}
		}
		return
	}
	// Fallback scan: sort the matches so the unindexed path is as
	// deterministic as the indexed one — map iteration order must not
	// decide the order joins see their matches in.
	var out []*Row
	for _, r := range t.rows {
		if matchCols(r.Tuple, cols, key) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	for _, r := range out {
		fn(r)
	}
}

func matchCols(tp Tuple, cols []int, key []Value) bool {
	for i, c := range cols {
		if c >= len(tp.Vals) || !tp.Vals[c].Equal(key[i]) {
			return false
		}
	}
	return true
}

// Apply adds delta (+n derivations or -n) for the tuple and reports the
// visibility transition. Deleting below zero is clamped and Rejected.
func (t *Table) Apply(tp Tuple, delta int) Transition {
	tp = tp.Identified() // a stored row carries its VID to every reader
	vid := tp.VID()
	r, ok := t.rows[vid]
	if delta > 0 {
		if !ok {
			r = &Row{Tuple: tp, Count: delta}
			t.rows[vid] = r
			t.indexAdd(vid, tp)
			t.chunkInsert(&r.Tuple)
			t.version++
			return Appeared
		}
		r.Count += delta
		return NoChange
	}
	if delta < 0 {
		if !ok {
			return Rejected
		}
		r.Count += delta
		if r.Count <= 0 {
			delete(t.rows, vid)
			t.indexRemove(vid, r.Tuple)
			t.chunkRemove(&r.Tuple)
			t.version++
			return Disappeared
		}
		return NoChange
	}
	return NoChange
}

func (t *Table) indexAdd(vid ID, tp Tuple) {
	for _, idx := range t.indexes {
		h, err := tp.KeyHash(idx.cols)
		if err != nil {
			continue
		}
		idx.buckets[h] = append(idx.buckets[h], vid)
	}
}

func (t *Table) indexRemove(vid ID, tp Tuple) {
	for _, idx := range t.indexes {
		h, err := tp.KeyHash(idx.cols)
		if err != nil {
			continue
		}
		b := idx.buckets[h]
		for i, v := range b {
			if v == vid {
				b[i] = b[len(b)-1]
				idx.buckets[h] = b[:len(b)-1]
				break
			}
		}
		if len(idx.buckets[h]) == 0 {
			delete(idx.buckets, h)
		}
	}
}

// KeyConflicts returns the visible rows that share tp's primary key but
// are not equal to tp. Used to implement NDlog's key-replacement
// semantics for base-table updates.
func (t *Table) KeyConflicts(tp Tuple) []*Row {
	key := t.schema.EffectiveKey()
	vals := make([]Value, len(key))
	for i, c := range key {
		if c >= len(tp.Vals) {
			return nil
		}
		vals[i] = tp.Vals[c]
	}
	var out []*Row
	t.Probe(key, vals, func(r *Row) {
		if !r.Tuple.Equal(tp) {
			out = append(out, r)
		}
	})
	return out
}

// Scan visits every visible row; returning false stops the scan. The
// iteration order is unspecified.
func (t *Table) Scan(f func(*Row) bool) {
	for _, r := range t.rows {
		if !f(r) {
			return
		}
	}
}

// Tuples returns a fresh copy of all visible tuples, sorted
// deterministically.
func (t *Table) Tuples() []Tuple {
	return t.Freeze().Tuples()
}
