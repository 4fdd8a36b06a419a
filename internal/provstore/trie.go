package provstore

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/wire"
)

// Trie is a LOUDS-sparse succinct trie (the FST/SuRF shape): the
// per-segment point index mapping keys — blob hashes, version numbers,
// node/tuple first-seen keys — to uint64 values without decoding the
// segment body. Three parallel level-ordered sequences describe the
// whole tree:
//
//   - labels[i]   — the byte on edge i
//   - hasChild[i] — 1 when edge i descends to an internal node, 0 when
//     it terminates a key (a leaf holding a value)
//   - louds[i]    — 1 when edge i is the first edge of its node's
//     child block (LOUDS node delimiters)
//
// Node c's child block spans [select1(louds, c+1), select1(louds, c+2));
// edge i with hasChild set descends to node rank1(hasChild, i); leaf i
// holds values[rank0(hasChild, i)]. Unlike full SuRF the trie stores
// keys to their last byte (no suffix truncation), so lookups are exact
// — a false positive here would alias two blobs or two versions.
//
// Keys must be unique and prefix-free; every key space the provstore
// indexes is (hashes and versions are fixed-length; first-seen keys are
// a NUL-terminated address, which cannot contain NUL, plus a
// fixed-length hash).
//
// A Trie is immutable once built or unmarshaled.
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type Trie struct {
	labels   []byte
	hasChild *bitvec
	louds    *bitvec
	values   []uint64
}

// BuildTrie builds the trie for sorted, unique, prefix-free keys with
// parallel values. Construction is one breadth-first pass over the key
// ranges; violations of the key contract are reported, not indexed.
func BuildTrie(keys [][]byte, values []uint64) (*Trie, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("provstore: trie: %d keys, %d values", len(keys), len(values))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return nil, fmt.Errorf("provstore: trie: keys not strictly sorted at %d", i)
		}
	}
	for i, k := range keys {
		if len(k) == 0 {
			return nil, fmt.Errorf("provstore: trie: empty key at %d", i)
		}
	}
	t := &Trie{hasChild: &bitvec{}, louds: &bitvec{}}
	if len(keys) > 0 {
		// BFS over [lo,hi) key ranges at a given depth; each popped
		// range is one internal node whose child edges are the distinct
		// bytes at that depth.
		type nodeRange struct{ lo, hi, depth int }
		queue := []nodeRange{{0, len(keys), 0}}
		for len(queue) > 0 {
			nr := queue[0]
			queue = queue[1:]
			first := true
			for lo := nr.lo; lo < nr.hi; {
				b := keys[lo][nr.depth]
				hi := lo + 1
				for hi < nr.hi && len(keys[hi]) > nr.depth && keys[hi][nr.depth] == b {
					hi++
				}
				leaf := hi-lo == 1 && len(keys[lo]) == nr.depth+1
				if !leaf {
					// Every key in the group must continue past this
					// depth, or a key would be a proper prefix of
					// another.
					for k := lo; k < hi; k++ {
						if len(keys[k]) == nr.depth+1 {
							return nil, fmt.Errorf("provstore: trie: key %d is a prefix of key %d", k, k+1)
						}
					}
				}
				t.labels = append(t.labels, b)
				t.hasChild.appendBit(!leaf)
				t.louds.appendBit(first)
				first = false
				if leaf {
					t.values = append(t.values, values[lo])
				} else {
					queue = append(queue, nodeRange{lo, hi, nr.depth + 1})
				}
				lo = hi
			}
		}
	}
	t.hasChild.finish()
	t.louds.finish()
	return t, nil
}

// Len returns the number of keys indexed.
func (t *Trie) Len() int { return len(t.values) }

// Get returns the value stored for key.
func (t *Trie) Get(key []byte) (uint64, bool) {
	if t == nil || len(t.values) == 0 || len(key) == 0 {
		return 0, false
	}
	lo := t.louds.select1(1)
	hi := t.louds.select1(2)
	for d := 0; d < len(key); d++ {
		pos, ok := t.findLabel(lo, hi, key[d])
		if !ok {
			return 0, false
		}
		if !t.hasChild.get(pos) {
			if d == len(key)-1 {
				return t.values[t.hasChild.rank0(pos)], true
			}
			return 0, false // indexed key is a prefix of the probe
		}
		if d == len(key)-1 {
			return 0, false // probe is a prefix of an indexed key
		}
		child := t.hasChild.rank1(pos)
		lo = t.louds.select1(child + 1)
		hi = t.louds.select1(child + 2)
	}
	return 0, false
}

// findLabel locates byte b in the child block [lo, hi).
func (t *Trie) findLabel(lo, hi int, b byte) (int, bool) {
	// Child blocks are label-sorted (keys were sorted), so binary
	// search; blocks are usually tiny, so fall back to a scan there.
	if hi-lo > 8 {
		i := lo + sort.Search(hi-lo, func(i int) bool { return t.labels[lo+i] >= b })
		return i, i < hi && t.labels[i] == b
	}
	for i := lo; i < hi; i++ {
		if t.labels[i] == b {
			return i, true
		}
	}
	return 0, false
}

// Walk visits every indexed key/value pair in lexicographic key order.
func (t *Trie) Walk(fn func(key []byte, value uint64) error) error {
	if t == nil || len(t.values) == 0 {
		return nil
	}
	var walk func(node int, prefix []byte) error
	walk = func(node int, prefix []byte) error {
		lo := t.louds.select1(node + 1)
		hi := t.louds.select1(node + 2)
		for pos := lo; pos < hi; pos++ {
			key := append(prefix, t.labels[pos])
			if t.hasChild.get(pos) {
				if err := walk(t.hasChild.rank1(pos), key); err != nil {
					return err
				}
			} else if err := fn(key, t.values[t.hasChild.rank0(pos)]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, nil)
}

// Marshal appends the trie's wire form to b.
func (t *Trie) Marshal(b []byte) []byte {
	b = wire.AppendBytes(b, t.labels)
	b = t.hasChild.marshal(b)
	b = t.louds.marshal(b)
	b = wire.AppendUvarint(b, uint64(len(t.values)))
	for _, v := range t.values {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// UnmarshalTrie takes one trie from r and validates its structural
// invariants (sequence lengths agree; value count matches leaf count)
// so a corrupt index fails loudly at load, not during a lookup. The
// trie owns copies of what it keeps: r may read a mapping that is
// unmapped while the trie is still in use.
func UnmarshalTrie(r *wire.Reader) (*Trie, error) {
	t := &Trie{labels: bytes.Clone(r.Bytes("trie labels"))}
	t.hasChild = unmarshalBitvec(r)
	t.louds = unmarshalBitvec(r)
	nv := r.Count("trie value count", math.MaxInt)
	t.values = make([]uint64, 0, wire.Prealloc(nv))
	for i := 0; i < nv && r.Err() == nil; i++ {
		t.values = append(t.values, r.Uvarint("trie value"))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provstore: trie: %w", err)
	}
	if t.hasChild.n != len(t.labels) || t.louds.n != len(t.labels) {
		return nil, fmt.Errorf("provstore: trie sequence lengths disagree (%d labels, %d hasChild, %d louds)",
			len(t.labels), t.hasChild.n, t.louds.n)
	}
	if leaves := len(t.labels) - t.hasChild.ones; leaves != len(t.values) {
		return nil, fmt.Errorf("provstore: trie has %d leaves but %d values", leaves, len(t.values))
	}
	if len(t.labels) > 0 && (t.louds.ones == 0 || !t.louds.get(0)) {
		return nil, fmt.Errorf("provstore: trie louds does not open a node at position 0")
	}
	if t.hasChild.ones+1 != t.louds.ones && len(t.labels) > 0 {
		return nil, fmt.Errorf("provstore: trie has %d internal edges but %d nodes", t.hasChild.ones, t.louds.ones)
	}
	return t, nil
}
