// Package rel mirrors the shape of the real repro/internal/rel
// persistent-table types. Unlike the fwfixture package, Frozen here
// carries NO nettrails:frozen marker: the test type-checks this
// package as repro/internal/rel, so the diagnostics below prove the
// cross-package registry entry ("repro/internal/rel.Frozen") catches
// writes on its own — exactly how the real type is protected in the
// packages that consume it.
package rel

// Tuple stands in for the real tuple value type.
type Tuple struct {
	Rel string
}

type chunk struct {
	gen uint64
	ts  []*Tuple
}

// Frozen is the registry-protected persistent view (no doc marker on
// purpose; see the package comment).
type Frozen struct {
	version uint64
	chunks  []*chunk
	n       int
	flat    []Tuple
}

// Table is live and unconstrained.
type Table struct {
	frozen *Frozen
	gen    uint64
}

// freeze is the sanctioned builder: the local is fresh from a
// composite literal, so stamping fields before handoff is legal.
func (t *Table) freeze(chunks []*chunk, n int) *Frozen {
	f := &Frozen{version: 1, chunks: chunks}
	f.n = n
	t.frozen = f // Table is not frozen; caching the handoff is fine.
	t.gen++
	return f
}

// mutatePublished writes through a Frozen that arrived from outside:
// every shape must be flagged via the registry alone.
func mutatePublished(f *Frozen) {
	f.n = 9                      // want `write to f\.n mutates frozen Frozen`
	f.version++                  // want `write to f\.version mutates frozen Frozen`
	f.flat = nil                 // want `write to f\.flat mutates frozen Frozen`
	f.chunks[0].ts[0] = nil      // want `write to f\.chunks\[0\]\.ts\[0\] mutates frozen Frozen`
	*f.chunks[0].ts[1] = Tuple{} // want `write to \*f\.chunks\[0\]\.ts\[1\] mutates frozen Frozen`
}

// memoize documents why its single write is safe: a justified
// //lint:allow suppresses the finding.
func memoize(f *Frozen) []Tuple {
	if f.flat == nil {
		flat := make([]Tuple, 0, f.n)
		for _, c := range f.chunks {
			for _, tp := range c.ts {
				flat = append(flat, *tp)
			}
		}
		//lint:allow frozenwrite fixture: the cache is filled once, before any reader sees it
		f.flat = flat
	}
	return f.flat
}

// readOnly proves reads and value copies stay legal.
func readOnly(f *Frozen) int {
	n := f.n
	for _, c := range f.chunks {
		n += len(c.ts)
	}
	return n
}
