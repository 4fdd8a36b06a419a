package provenance

import (
	"slices"

	"repro/internal/rel"
)

// bucketTarget is the load factor the view's bucket directory aims for:
// roughly this many keys per bucket. Buckets stay small so cloning a
// mutated bucket copies O(bucketTarget) entries, not the partition.
const bucketTarget = 16

// buckets is a persistent hash directory: a power-of-two spine of small
// key-sorted slices. Successive views share every bucket the mutations
// between them did not touch; an update copies only the dirty buckets
// (and the spine). An empty bucket is nil.
type buckets[V any] struct {
	mask uint32
	m    [][]kv[V]
}

// kv is one bucket entry; a bucket holds them in ascending id order.
type kv[V any] struct {
	id rel.ID
	v  V
}

func bucketIdx(id rel.ID, mask uint32) uint32 {
	return uint32(id.Hash64()) & mask
}

// find returns id's position in the sorted bucket and whether it is there.
func find[V any](bucket []kv[V], id rel.ID) (int, bool) {
	return slices.BinarySearchFunc(bucket, id, func(e kv[V], id rel.ID) int { return e.id.Compare(id) })
}

func (b buckets[V]) get(id rel.ID) (V, bool) {
	if len(b.m) != 0 {
		bucket := b.m[bucketIdx(id, b.mask)]
		if i, ok := find(bucket, id); ok {
			return bucket[i].v, true
		}
	}
	var zero V
	return zero, false
}

// bucketCountFor picks the spine size for n keys: the smallest power of
// two keeping buckets near bucketTarget, never below the previous size
// (grow-only, so steady-state updates are always incremental).
func bucketCountFor(n, prev int) int {
	nb := 1
	for nb*bucketTarget < n {
		nb <<= 1
	}
	if nb < prev {
		nb = prev
	}
	return nb
}

// updateBuckets derives the next version of a bucket directory. When
// the spine size is unchanged it copies the spine, copies each bucket
// holding a dirty key once (one allocation and a memmove) and then
// inserts, replaces or deletes the dirty keys in that private copy,
// re-deriving them through lookup; on growth (or first build) it
// rebuilds from iterate. Either way the previous version's buckets are
// never written.
func updateBuckets[V any](old buckets[V], n int, dirty map[rel.ID]struct{},
	lookup func(rel.ID) (V, bool), iterate func(func(rel.ID, V))) buckets[V] {
	nb := bucketCountFor(n, len(old.m))
	if old.m == nil || nb != len(old.m) {
		out := buckets[V]{mask: uint32(nb - 1), m: make([][]kv[V], nb)}
		iterate(func(id rel.ID, v V) {
			i := bucketIdx(id, out.mask)
			out.m[i] = append(out.m[i], kv[V]{id, v})
		})
		for _, bucket := range out.m {
			slices.SortFunc(bucket, func(a, b kv[V]) int { return a.id.Compare(b.id) })
		}
		return out
	}
	out := buckets[V]{mask: old.mask, m: slices.Clone(old.m)}
	owned := make([]bool, nb) // buckets already copied for this version
	for id := range dirty {
		i := bucketIdx(id, out.mask)
		bucket := out.m[i]
		if !owned[i] {
			owned[i] = true
			bucket = make([]kv[V], len(bucket), len(bucket)+1) // room for one insert
			copy(bucket, out.m[i])
		}
		pos, found := find(bucket, id)
		v, live := lookup(id)
		switch {
		case live && found:
			bucket[pos].v = v
		case live:
			bucket = slices.Insert(bucket, pos, kv[V]{id, v})
		case found:
			bucket = slices.Delete(bucket, pos, pos+1)
		}
		if len(bucket) == 0 {
			bucket = nil
		}
		out.m[i] = bucket
	}
	return out
}

// View is an immutable version of one node's provenance partition at a
// single instant. Views are built copy-on-publish by Store.View and
// shared freely across goroutines: nothing ever mutates a View after
// construction, so readers need no locks. Successive views share every
// bucket that no mutation touched (structural sharing), so building
// the next view costs O(mutations since the last one), not
// O(partition).
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type View struct {
	addr    string
	version uint64
	prov    buckets[[]Entry] // per-VID lists sorted like Store.Derivations
	// exec and pins point at the store's own records (countedExec.exec,
	// pin.tuple), which nothing writes once recorded, so advancing a
	// bucket moves 32-byte pairs instead of copying the rows.
	exec        buckets[*ExecEntry]
	pins        buckets[*rel.Tuple]
	provEntries int
	execEntries int
	pinEntries  int
}

// View returns a frozen version of the partition. The view is cached
// per store version: while no mutation has happened since the last
// call, the same *View is handed back. When mutations did happen, the
// previous view is advanced by cloning only the buckets holding dirty
// keys — the rest of the directory is shared between versions.
func (s *Store) View() *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.view != nil && s.view.version == s.version {
		return s.view
	}
	var old View
	if s.view != nil {
		old = *s.view
	}
	v := &View{
		addr:        s.addr,
		version:     s.version,
		provEntries: s.provCount,
		execEntries: len(s.exec),
		pinEntries:  len(s.pins),
	}
	v.prov = updateBuckets(old.prov, len(s.prov), s.dirtyProv,
		func(vid rel.ID) ([]Entry, bool) {
			list, ok := s.prov[vid]
			if !ok {
				return nil, false
			}
			return sortedEntries(list), true
		},
		func(emit func(rel.ID, []Entry)) {
			for vid, list := range s.prov {
				emit(vid, sortedEntries(list))
			}
		})
	v.exec = updateBuckets(old.exec, len(s.exec), s.dirtyExec,
		func(rid rel.ID) (*ExecEntry, bool) {
			ce, ok := s.exec[rid]
			if !ok {
				return nil, false
			}
			return &ce.exec, true
		},
		func(emit func(rel.ID, *ExecEntry)) {
			for rid, ce := range s.exec {
				emit(rid, &ce.exec)
			}
		})
	v.pins = updateBuckets(old.pins, len(s.pins), s.dirtyPins,
		func(vid rel.ID) (*rel.Tuple, bool) {
			p, ok := s.pins[vid]
			if !ok {
				return nil, false
			}
			return &p.tuple, true
		},
		func(emit func(rel.ID, *rel.Tuple)) {
			for vid, p := range s.pins {
				emit(vid, &p.tuple)
			}
		})
	clear(s.dirtyProv)
	clear(s.dirtyExec)
	clear(s.dirtyPins)
	s.view = v
	return v
}

// sortedEntries renders one prov list in the deterministic order
// Store.Derivations uses.
func sortedEntries(list []*countedEntry) []Entry {
	out := make([]Entry, len(list))
	for i, ce := range list {
		out[i] = ce.entry
	}
	slices.SortFunc(out, compareEntry)
	return out
}

// Addr returns the owning node's address.
func (v *View) Addr() string { return v.addr }

// Version returns the store version the view was frozen at.
func (v *View) Version() uint64 { return v.version }

// Derivations returns the derivation entries of a tuple, sorted
// deterministically; ok is false when the tuple is unknown here. The
// returned slice is shared and must not be mutated.
func (v *View) Derivations(vid rel.ID) ([]Entry, bool) {
	return v.prov.get(vid)
}

// Exec returns the rule execution for a RID at this node.
func (v *View) Exec(rid rel.ID) (ExecEntry, bool) {
	if e, ok := v.exec.get(rid); ok {
		return *e, true
	}
	return ExecEntry{}, false
}

// TupleOf resolves a pinned VID to its tuple value.
func (v *View) TupleOf(vid rel.ID) (rel.Tuple, bool) {
	if t, ok := v.pins.get(vid); ok {
		return *t, true
	}
	return rel.Tuple{}, false
}

// Statistics returns partition sizes, mirroring Store.Statistics.
func (v *View) Statistics() Stats {
	return Stats{ProvEntries: v.provEntries, ExecEntries: v.execEntries, Pins: v.pinEntries}
}
