package rel

import "sort"

// Persistent sorted storage for Table: the visible tuple set is kept in
// deterministic Tuple.Compare order *incrementally*, as a spine of
// small sorted chunks with generation-based copy-on-write. Freeze()
// hands the current spine off as an immutable Frozen in O(1); the next
// mutation copies only the touched chunk (and the spine once per
// generation), so a publish after a k-tuple delta shares every
// untouched chunk with the previous version instead of re-copying and
// re-sorting the relation. A chunk is a run of pointers into the
// table's own rows (&Row.Tuple, never written after the row is made),
// so that copy moves one word a tuple, and a frozen version keeps the
// rows it points at alive after the table deletes them. Distinct tuples never compare equal (Compare
// is total over content, and identical content means the same VID and
// the same row), so insertion-maintained order is byte-identical to the
// sort.Slice output the eager path used to produce.
const (
	// chunkMax splits a chunk that grew past it; chunkMerge triggers a
	// merge attempt with a neighbor once a chunk shrinks below it.
	chunkMax   = 256
	chunkMerge = 32
	// chunkSlack is the extra capacity a copied chunk gets so follow-up
	// same-generation edits append in place instead of reallocating.
	chunkSlack = 8
)

// chunk is one sorted run of the table's tuple spine. It is writable in
// place only while its generation matches the table's current one;
// after a Freeze the table's generation moves on and every surviving
// chunk is shared with the frozen version, so the table copies it
// before the next edit.
type chunk struct {
	gen uint64
	ts  []*Tuple
}

// Frozen is one immutable version of a table's visible tuple set,
// produced by Table.Freeze. It shares every unchanged chunk with the
// live table and with neighboring versions (structural sharing), and is
// safe for concurrent readers without locks. All methods tolerate a nil
// receiver (an absent table reads as empty).
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type Frozen struct {
	version uint64
	chunks  []*chunk
	n       int
}

// Version returns the table visibility version this view was frozen at.
func (f *Frozen) Version() uint64 {
	if f == nil {
		return 0
	}
	return f.version
}

// Len returns the number of visible tuples, in O(1).
func (f *Frozen) Len() int {
	if f == nil {
		return 0
	}
	return f.n
}

// Tuples returns a fresh copy of all visible tuples in deterministic
// sorted order. Scan visits them without the copy.
func (f *Frozen) Tuples() []Tuple {
	if f == nil {
		return nil
	}
	flat := make([]Tuple, 0, f.n)
	for _, c := range f.chunks {
		for _, tp := range c.ts {
			flat = append(flat, *tp)
		}
	}
	return flat
}

// Scan visits the tuples in sorted order without materializing the
// flat slice; returning false stops the scan.
func (f *Frozen) Scan(fn func(Tuple) bool) {
	if f == nil {
		return
	}
	for _, c := range f.chunks {
		for _, tp := range c.ts {
			if !fn(*tp) {
				return
			}
		}
	}
}

// Freeze returns the table's current visible tuple set as an immutable
// structurally-shared version. Freezing is O(1): it captures the chunk
// spine and bumps the table's generation so any later mutation copies
// before writing. While the table's version is unchanged, Freeze
// returns the identical *Frozen (the persistent handoff snapshot
// publishers rely on).
func (t *Table) Freeze() *Frozen {
	if t.frozen != nil && t.frozen.version == t.version {
		return t.frozen
	}
	f := &Frozen{version: t.version, chunks: t.chunks, n: len(t.rows)}
	t.gen++ // every chunk (and the spine) is shared now; edits must copy
	t.frozen = f
	return f
}

// ensureSpine makes the chunk spine writable for the current
// generation: the first structural edit after a Freeze copies the
// pointer slice once, so frozen versions keep their own spine.
func (t *Table) ensureSpine() {
	if t.spineGen == t.gen {
		return
	}
	t.chunks = append(make([]*chunk, 0, len(t.chunks)+1), t.chunks...)
	t.spineGen = t.gen
}

// findChunk returns the index of the first chunk whose last tuple
// orders at or after tp — the only chunk that can contain tp.
func (t *Table) findChunk(tp *Tuple) int {
	return sort.Search(len(t.chunks), func(i int) bool {
		run := t.chunks[i].ts
		return run[len(run)-1].Compare(*tp) >= 0
	})
}

// writableChunk returns chunk i ready for in-place edits, copying it
// out of the shared generation first if needed.
func (t *Table) writableChunk(i int) *chunk {
	c := t.chunks[i]
	if c.gen == t.gen {
		return c
	}
	t.ensureSpine()
	ts := make([]*Tuple, len(c.ts), len(c.ts)+chunkSlack)
	copy(ts, c.ts)
	c = &chunk{gen: t.gen, ts: ts}
	t.chunks[i] = c
	return c
}

// chunkInsert places a newly visible row's tuple into the sorted
// spine; tp is &row.Tuple, which the chunk keeps.
func (t *Table) chunkInsert(tp *Tuple) {
	if len(t.chunks) == 0 {
		t.ensureSpine()
		t.chunks = append(t.chunks, &chunk{gen: t.gen, ts: []*Tuple{tp}})
		return
	}
	i := t.findChunk(tp)
	if i == len(t.chunks) {
		i--
	}
	c := t.writableChunk(i)
	pos := sort.Search(len(c.ts), func(k int) bool { return c.ts[k].Compare(*tp) >= 0 })
	c.ts = append(c.ts, nil)
	copy(c.ts[pos+1:], c.ts[pos:])
	c.ts[pos] = tp
	if len(c.ts) > chunkMax {
		t.splitChunk(i)
	}
}

// chunkRemove deletes a no-longer-visible tuple from the sorted spine.
// The caller has already established presence via the row map.
func (t *Table) chunkRemove(tp *Tuple) {
	i := t.findChunk(tp)
	if i == len(t.chunks) {
		return // unreachable when row bookkeeping is consistent
	}
	c := t.writableChunk(i)
	pos := sort.Search(len(c.ts), func(k int) bool { return c.ts[k].Compare(*tp) >= 0 })
	if pos == len(c.ts) || c.ts[pos] != tp {
		return // unreachable when row bookkeeping is consistent
	}
	copy(c.ts[pos:], c.ts[pos+1:])
	c.ts[len(c.ts)-1] = nil // release the row for GC
	c.ts = c.ts[:len(c.ts)-1]
	if len(c.ts) == 0 {
		t.ensureSpine()
		t.chunks = append(t.chunks[:i], t.chunks[i+1:]...)
		return
	}
	if len(c.ts) < chunkMerge {
		t.maybeMerge(i)
	}
}

// splitChunk halves an oversized chunk. The chunk is freshly writable
// (splits only follow an insert), so the halves may share its backing
// array: their regions are disjoint and capacity-capped, and any
// growth reallocates.
func (t *Table) splitChunk(i int) {
	t.ensureSpine()
	c := t.chunks[i]
	mid := len(c.ts) / 2
	right := &chunk{gen: t.gen, ts: c.ts[mid:len(c.ts):len(c.ts)]}
	c.ts = c.ts[:mid:mid]
	t.chunks = append(t.chunks, nil)
	copy(t.chunks[i+2:], t.chunks[i+1:])
	t.chunks[i+1] = right
}

// maybeMerge folds chunk i into a neighbor when their combined size is
// comfortably under the split threshold, keeping the spine from
// fragmenting under sustained deletion.
func (t *Table) maybeMerge(i int) {
	j := -1
	if i > 0 && len(t.chunks[i-1].ts)+len(t.chunks[i].ts) <= chunkMax/2 {
		j = i - 1
	} else if i+1 < len(t.chunks) && len(t.chunks[i].ts)+len(t.chunks[i+1].ts) <= chunkMax/2 {
		j = i
	}
	if j < 0 {
		return
	}
	t.ensureSpine()
	a, b := t.chunks[j], t.chunks[j+1]
	ts := make([]*Tuple, 0, len(a.ts)+len(b.ts)+chunkSlack)
	ts = append(append(ts, a.ts...), b.ts...)
	t.chunks[j] = &chunk{gen: t.gen, ts: ts}
	t.chunks = append(t.chunks[:j+1], t.chunks[j+2:]...)
}
