package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rel"
	"repro/internal/wire"
)

// Persistence hooks for View: the provstore serializes a provenance
// view bucket by bucket (each non-empty bucket becomes one
// content-addressed blob, so a bucket no mutation touched re-encodes to
// the identical bytes and is stored once) and reconstructs an
// equivalent View from those buckets when materializing a historical
// version from disk. Encodings are deterministic: keys are emitted in
// ID order (the order a bucket holds them in), entry lists in their
// already-deterministic stored order.

// The three bucket directories of a view, in the order PersistBuckets
// returns them and EachBucket visits them.
const (
	SpineProv = iota
	SpineExec
	SpinePins
)

// SpineLen returns the length of one bucket directory, empty buckets
// included.
func (v *View) SpineLen(spine int) int {
	switch spine {
	case SpineProv:
		return len(v.prov.m)
	case SpineExec:
		return len(v.exec.m)
	default:
		return len(v.pins.m)
	}
}

// Bucket is one non-empty bucket of a view's directory, as EachBucket
// visits it. Its contents are fixed: a view never writes a bucket it
// holds, and the next version copies a bucket before changing it.
type Bucket struct {
	Spine, Index int
	v            *View
}

// EachBucket calls fn for every non-empty bucket, spine by spine and in
// index order within a spine. Nothing is encoded unless fn asks.
func (v *View) EachBucket(fn func(Bucket)) {
	for spine := SpineProv; spine <= SpinePins; spine++ {
		for i := range v.SpineLen(spine) {
			b := Bucket{Spine: spine, Index: i, v: v}
			if _, n := b.Key(); n > 0 {
				fn(b)
			}
		}
	}
}

// Key names the bucket by its first entry's address and its length.
// Two buckets with equal keys share one backing array, which nothing
// writes, so they encode identically. A caller holding first keeps the
// array alive, so its address is not reused while the key is held.
func (b Bucket) Key() (first any, n int) {
	switch b.Spine {
	case SpineProv:
		return bucketKey(b.v.prov.m[b.Index])
	case SpineExec:
		return bucketKey(b.v.exec.m[b.Index])
	default:
		return bucketKey(b.v.pins.m[b.Index])
	}
}

func bucketKey[V keyed](bucket []kv[V]) (any, int) {
	if len(bucket) == 0 {
		return nil, 0
	}
	return &bucket[0], len(bucket)
}

// AppendTo appends the bucket's persisted encoding to dst: the key
// count, then each key in ID order followed by its value. A slot keeps
// only its key's prefix, so the key is read from the value.
func (b Bucket) AppendTo(dst []byte) []byte {
	switch b.Spine {
	case SpineProv:
		bucket := b.v.prov.m[b.Index]
		dst = wire.AppendUvarint(dst, uint64(len(bucket)))
		for _, e := range bucket {
			dst = append(dst, e.v[0].VID[:]...)
			dst = wire.AppendUvarint(dst, uint64(len(e.v)))
			for _, d := range e.v {
				dst = append(dst, d.RID[:]...)
				dst = wire.AppendString(dst, d.RLoc)
			}
		}
	case SpineExec:
		bucket := b.v.exec.m[b.Index]
		dst = wire.AppendUvarint(dst, uint64(len(bucket)))
		for _, e := range bucket {
			dst = append(dst, e.v.RID[:]...)
			dst = wire.AppendString(dst, e.v.Rule)
			dst = wire.AppendUvarint(dst, uint64(len(e.v.VIDs)))
			for _, vid := range e.v.VIDs {
				dst = append(dst, vid[:]...)
			}
		}
	default:
		bucket := b.v.pins.m[b.Index]
		dst = wire.AppendUvarint(dst, uint64(len(bucket)))
		for _, e := range bucket {
			dst = append(dst, e.v.vid[:]...)
			dst = rel.AppendTuple(dst, e.v.t)
		}
	}
	return dst
}

// PersistBuckets renders the view's three bucket directories as
// deterministic per-bucket encodings, parallel to the directory spines.
// Empty buckets render as nil (canonical absence), so the caller can
// skip them and a bucket's hash never depends on spine position.
func (v *View) PersistBuckets() (prov, exec, pins [][]byte) {
	var dirs [3][][]byte
	for spine := range dirs {
		dirs[spine] = make([][]byte, v.SpineLen(spine))
	}
	// One scratch buffer serves every bucket; each is cloned out at its
	// exact size.
	var b []byte
	v.EachBucket(func(bk Bucket) {
		b = bk.AppendTo(b[:0])
		dirs[bk.Spine][bk.Index] = bytes.Clone(b)
	})
	return dirs[SpineProv], dirs[SpineExec], dirs[SpinePins]
}

// RebuildView reconstructs a View from persisted bucket encodings, as
// produced by PersistBuckets (nil entries are empty buckets). The spine
// lengths must be positive powers of two, every decoded key must hash
// to the bucket it was stored in, and a key's derivations must ascend
// strictly in derivation order — violations mean corrupt or
// mis-assembled blobs and are rejected. Aggregate statistics are
// recomputed from the decoded contents.
func RebuildView(addr string, version uint64, prov, exec, pins [][]byte) (*View, error) {
	v := &View{addr: addr, version: version}
	if err := checkSpine("prov", len(prov)); err != nil {
		return nil, err
	}
	if err := checkSpine("exec", len(exec)); err != nil {
		return nil, err
	}
	if err := checkSpine("pins", len(pins)); err != nil {
		return nil, err
	}
	v.prov = buckets[entryList]{mask: uint32(len(prov) - 1), m: make([][]kv[entryList], len(prov))}
	for i, enc := range prov {
		if enc == nil {
			continue
		}
		bucket, err := decodeBucket(enc, uint32(i), v.prov.mask, func(r *wire.Reader, vid rel.ID) entryList {
			n := r.Count("prov entry count", math.MaxInt)
			if n == 0 {
				r.Failf("prov key %s: %w", vid.Short(), errNoDerivation)
			}
			list := make(entryList, 0, wire.Prealloc(n))
			for k := 0; k < n && r.Err() == nil; k++ {
				e := Entry{VID: vid, RID: rel.DecodeID(r, "prov rid"), RLoc: r.String("prov rloc")}
				if k > 0 && compareEntry(list[k-1], e) >= 0 {
					r.Failf("prov key %s: %w", vid.Short(), errDerivationOrder)
				}
				list = append(list, e)
			}
			return list
		})
		if err != nil {
			return nil, fmt.Errorf("provenance: rebuild prov bucket %d: %w", i, err)
		}
		v.prov.m[i] = bucket
		for _, e := range bucket {
			v.provEntries += len(e.v)
		}
	}
	v.exec = buckets[*ExecEntry]{mask: uint32(len(exec) - 1), m: make([][]kv[*ExecEntry], len(exec))}
	for i, enc := range exec {
		if enc == nil {
			continue
		}
		bucket, err := decodeBucket(enc, uint32(i), v.exec.mask, func(r *wire.Reader, rid rel.ID) *ExecEntry {
			e := ExecEntry{RID: rid, Rule: r.String("exec rule")}
			n := r.Count("exec vid count", math.MaxInt)
			e.VIDs = make([]rel.ID, 0, wire.Prealloc(n))
			for k := 0; k < n && r.Err() == nil; k++ {
				e.VIDs = append(e.VIDs, rel.DecodeID(r, "exec vid"))
			}
			return &e
		})
		if err != nil {
			return nil, fmt.Errorf("provenance: rebuild exec bucket %d: %w", i, err)
		}
		v.exec.m[i] = bucket
		v.execEntries += len(bucket)
	}
	v.pins = buckets[*pin]{mask: uint32(len(pins) - 1), m: make([][]kv[*pin], len(pins))}
	for i, enc := range pins {
		if enc == nil {
			continue
		}
		bucket, err := decodeBucket(enc, uint32(i), v.pins.mask, func(r *wire.Reader, vid rel.ID) *pin {
			// The persisted key is kept, not re-hashed from the tuple.
			return &pin{vid: vid, t: rel.DecodeTuple(r)}
		})
		if err != nil {
			return nil, fmt.Errorf("provenance: rebuild pins bucket %d: %w", i, err)
		}
		v.pins.m[i] = bucket
		v.pinEntries += len(bucket)
	}
	return v, nil
}

func checkSpine(name string, n int) error {
	if n < 1 || bits.OnesCount(uint(n)) != 1 {
		return fmt.Errorf("provenance: rebuild view: %s spine length %d is not a positive power of two", name, n)
	}
	return nil
}

// errNoDerivation rejects a persisted prov key with an empty
// derivation list: the store never holds one, and a prov slot's key is
// its list's first entry's VID.
var errNoDerivation = errors.New("no derivation")

// errDerivationOrder rejects a persisted derivation list that is not
// strictly ascending in compareEntry order, the order the store keeps
// and bisects (a repeated entry is out of order too).
var errDerivationOrder = errors.New("derivations out of order")

// decodeBucket decodes one bucket's key/value pairs, verifying each key
// hashes into this bucket, that keys ascend strictly (the order a bucket
// is searched in; a repeat is out of order too) and that the encoding
// is fully consumed. dec is handed each key, which the value it returns
// must name: the slot keeps only the key's prefix.
func decodeBucket[V keyed](enc []byte, idx, mask uint32, dec func(*wire.Reader, rel.ID) V) ([]kv[V], error) {
	r := wire.NewReader(enc)
	n := r.Count("key count", math.MaxInt)
	if n == 0 {
		r.Failf("empty bucket encoded non-nil")
	}
	bucket := make([]kv[V], 0, wire.Prealloc(n))
	var last rel.ID
	for k := 0; k < n && r.Err() == nil; k++ {
		id := rel.DecodeID(&r, "key")
		if bucketIdx(id, mask) != idx {
			r.Failf("key %s does not belong in bucket %d", id.Short(), idx)
		}
		if k > 0 && last.Compare(id) >= 0 {
			r.Failf("key %s is not above the key before it", id.Short())
		}
		bucket = append(bucket, kv[V]{prefix(id), dec(&r, id)})
		last = id
	}
	if err := r.Done("bucket"); err != nil {
		return nil, err
	}
	return bucket, nil
}
