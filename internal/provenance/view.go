package provenance

import (
	"encoding/binary"
	"iter"
	"slices"

	"repro/internal/rel"
)

// bucketTarget is the load factor the bucket directory aims for:
// roughly this many keys per bucket. Buckets stay small so copying a
// mutated bucket copies O(bucketTarget) entries, not the partition.
const bucketTarget = 16

// buckets is a persistent hash directory: a power-of-two spine of small
// key-sorted slices. Successive views share every bucket the mutations
// between them did not touch. An empty bucket is nil.
type buckets[V keyed] struct {
	mask uint32
	m    [][]kv[V]
}

// keyed is a slot value that names its own key, so a slot need only
// keep the key's prefix beside it.
type keyed interface{ key() rel.ID }

// kv is one bucket slot: the value's key prefix and the value. A bucket
// holds its slots in ascending key order; prefix order is byte order,
// so only slots whose prefixes tie compare full keys.
type kv[V keyed] struct {
	pre uint64
	v   V
}

// prefix is a key's first 8 bytes, read big-endian.
func prefix(id rel.ID) uint64 { return binary.BigEndian.Uint64(id[:8]) }

func bucketIdx(id rel.ID, mask uint32) uint32 {
	return uint32(id.Hash64()) & mask
}

// find returns id's position in the sorted bucket and whether it is
// there. It bisects the prefixes and reads a full key only on a tie.
func find[V keyed](bucket []kv[V], id rel.ID) (int, bool) {
	p := prefix(id)
	lo, hi := 0, len(bucket)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if pre := bucket[h].pre; pre < p || pre == p && bucket[h].v.key().Compare(id) < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(bucket) && bucket[lo].pre == p && bucket[lo].v.key() == id
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

// bucketCountFor picks a view's spine size for n keys: the smallest
// power of two keeping buckets near bucketTarget, never below the
// previous view's size (grow-only, so steady-state updates are always
// incremental). Persisted buckets depend on it, so it is a format rule.
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

// dir is the store's side of one bucket directory: the buckets a view
// is handed, plus what only the store reads. It follows rel.Table's
// chunk rule: a bucket is writable while its generation is now, so a
// mutation copies a bucket (and the spine) at most once per generation
// and edits it in place after that, and handing the directory to a
// view is a generation bump.
type dir[V keyed, C any] struct {
	buckets[V]
	// side holds, parallel to each bucket's slots, what the view never
	// reads (derivation counts, refcounts). It is never handed over, so
	// it is edited in place and a count bump copies nothing.
	side [][]C
	now  uint64   // the generation that may write in place; handoff ends it
	gen  []uint64 // gen[i] is the generation that owns m[i]
	// spine is the generation that owns the slice m itself.
	spine uint64
	keys  int
	// viewed is the spine length the last view was handed, 0 before
	// the first.
	viewed int
}

// overload is how far past bucketTarget a directory may fill between
// views before an insert grows it. A store that is never viewed (a
// node another shard serves) or not viewed yet (a deployment
// converging before its publisher attaches) keeps small buckets too.
const overload = 4

// newDir returns an empty directory of nb buckets, all owned by the
// generation now: no view holds them yet.
func newDir[V keyed, C any](nb int, now uint64) dir[V, C] {
	gen := make([]uint64, nb)
	for i := range gen {
		gen[i] = now
	}
	return dir[V, C]{
		buckets: buckets[V]{mask: uint32(nb - 1), m: make([][]kv[V], nb)},
		side:    make([][]C, nb),
		now:     now,
		gen:     gen,
		spine:   now,
	}
}

// locate returns id's bucket, its position there, and whether it is
// present.
func (d *dir[V, C]) locate(id rel.ID) (b uint32, pos int, ok bool) {
	b = bucketIdx(id, d.mask)
	pos, ok = find(d.m[b], id)
	return b, pos, ok
}

// own makes bucket b writable and returns it. The first write of a
// generation copies the spine and the bucket, which the last view
// holds; later ones find them owned.
func (d *dir[V, C]) own(b uint32) []kv[V] {
	if d.spine != d.now {
		d.m, d.spine = slices.Clone(d.m), d.now
	}
	if d.gen[b] != d.now {
		bucket := make([]kv[V], len(d.m[b]), len(d.m[b])+1) // room for one insert
		copy(bucket, d.m[b])
		d.m[b], d.gen[b] = bucket, d.now
	}
	return d.m[b]
}

func (d *dir[V, C]) insert(b uint32, pos int, id rel.ID, v V, c C) {
	d.m[b] = slices.Insert(d.own(b), pos, kv[V]{prefix(id), v})
	d.side[b] = slices.Insert(d.side[b], pos, c)
	if d.keys++; d.keys > len(d.m)*bucketTarget*overload {
		d.resize(bucketCountFor(d.keys, len(d.m)))
	}
}

func (d *dir[V, C]) set(b uint32, pos int, v V) {
	d.own(b)[pos].v = v
}

func (d *dir[V, C]) remove(b uint32, pos int) {
	bucket := slices.Delete(d.own(b), pos, pos+1)
	if len(bucket) == 0 {
		bucket = nil
	}
	d.m[b] = bucket
	d.side[b] = slices.Delete(d.side[b], pos, pos+1)
	d.keys--
}

// all yields every slot with its side value, in bucket order.
func (d *dir[V, C]) all() iter.Seq2[kv[V], C] {
	return func(yield func(kv[V], C) bool) {
		for b, bucket := range d.m {
			for pos, e := range bucket {
				if !yield(e, d.side[b][pos]) {
					return
				}
			}
		}
	}
}

// handoff returns the buckets for a view and ends the generation. It
// first resizes the spine to bucketCountFor the keys it holds and the
// last view's spine: exactly the size a view of these keys has always
// had, however the store grew between views.
func (d *dir[V, C]) handoff() buckets[V] {
	if nb := bucketCountFor(d.keys, d.viewed); nb != len(d.m) {
		d.resize(nb)
	}
	d.viewed = len(d.m)
	d.now++
	return d.buckets
}

// resize rehashes the directory into nb fresh buckets.
func (d *dir[V, C]) resize(nb int) {
	out := newDir[V, C](nb, d.now)
	for e, c := range d.all() {
		b, pos, _ := out.locate(e.v.key())
		out.m[b] = slices.Insert(out.m[b], pos, e)
		out.side[b] = slices.Insert(out.side[b], pos, c)
	}
	out.keys, out.viewed = d.keys, d.viewed
	*d = out
}

// View is an immutable version of one node's provenance partition at a
// single instant: the store's bucket directories as they stood when
// Store.View handed them over. Views are shared freely across
// goroutines: nothing writes a bucket a view holds, so readers need no
// locks. Successive views share every bucket that no mutation touched,
// so taking the next view costs O(1) and the mutations between two
// views copy O(buckets they touch), not O(partition).
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type View struct {
	addr    string
	version uint64
	prov    buckets[entryList] // per-VID lists in compareEntry order
	// exec and pins point at the store's own records, which nothing
	// writes once recorded, so copying a bucket moves 16-byte slots (a
	// key prefix and a pointer) instead of the rows.
	exec        buckets[*ExecEntry]
	pins        buckets[*pin]
	provEntries int
	execEntries int
	pinEntries  int
}

// View returns a frozen version of the partition. While no mutation
// has happened since the last call, the same *View is handed back.
// Otherwise the store hands its directories over, resized if their key
// counts moved past a power of two, and starts a new generation, so
// its next write to a bucket or a derivation list copies it first.
func (s *Store) View() *View {
	if s.view != nil && s.view.version == s.version {
		return s.view
	}
	s.view = &View{
		addr:        s.addr,
		version:     s.version,
		prov:        s.prov.handoff(),
		exec:        s.exec.handoff(),
		pins:        s.pins.handoff(),
		provEntries: s.provCount,
		execEntries: s.exec.keys,
		pinEntries:  s.pins.keys,
	}
	return s.view
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
func (v *View) Exec(rid rel.ID) (ExecEntry, bool) { return deref(v.exec.get(rid)) }

// TupleOf resolves a pinned VID to its tuple value.
func (v *View) TupleOf(vid rel.ID) (rel.Tuple, bool) {
	p, ok := deref(v.pins.get(vid))
	return p.t, ok
}

// deref copies out a record an exec or pins bucket points at.
func deref[T any](p *T, ok bool) (T, bool) {
	if !ok {
		var zero T
		return zero, false
	}
	return *p, true
}

// Statistics returns partition sizes, mirroring Store.Statistics.
func (v *View) Statistics() Stats {
	return Stats{ProvEntries: v.provEntries, ExecEntries: v.execEntries, Pins: v.pinEntries}
}
