// Package eval is type-checked as repro/internal/eval against the real
// repro/internal/rel: a package that receives *rel.Row from a table's
// Probe, Get or Scan. Table chunks, and with them every frozen version,
// point at a row's Tuple field, so no store to it is legal.
package eval

import "repro/internal/rel"

// rewrite stores to the field through a row the table handed out.
func rewrite(r *rel.Row, tp rel.Tuple) {
	r.Tuple = tp                 // want `write to r\.Tuple stores to read-only field repro/internal/rel\.Row\.Tuple`
	r.Tuple.Rel = "other"        // want `write to r\.Tuple\.Rel stores to read-only field`
	r.Tuple.Vals[0] = rel.Int(1) // want `write to r\.Tuple\.Vals\[0\] stores to read-only field`
	r.Count++                    // the count is the table's to change, not frozen
}

// rebuild stores to the field of a row it made itself: still flagged,
// since the registry names the field, not a published value.
func rebuild(tp rel.Tuple) *rel.Row {
	r := &rel.Row{}
	r.Tuple = tp // want `write to r\.Tuple stores to read-only field`
	return r
}

// build sets the field in a composite literal, which is not a store.
func build(tp rel.Tuple) *rel.Row {
	return &rel.Row{Tuple: tp, Count: 1}
}

// read copies the tuple out; writing the copy touches no row.
func read(r *rel.Row) rel.Tuple {
	tp := r.Tuple
	tp.Rel = "copy"
	return tp
}
