package rel

import (
	"fmt"
	"sort"
)

// Persistence hooks for Frozen: the provstore serializes a frozen table
// as its chunk runs (each run becomes one content-addressed blob, so an
// unchanged chunk re-encodes to the identical bytes and is stored once)
// and reconstructs an equivalent Frozen from those runs when
// materializing a historical version from disk.

// Runs visits each chunk's sorted run in spine order. The visited
// slices, and the tuples they point at, are shared with the frozen
// version (and possibly with the live table): callers must treat both
// as read-only. A nil or empty Frozen visits nothing.
func (f *Frozen) Runs(fn func([]*Tuple)) {
	if f == nil {
		return
	}
	for _, c := range f.chunks {
		fn(c.ts[:len(c.ts):len(c.ts)])
	}
}

// EachAbsent calls fn, in run order, for every tuple of run that the
// frozen set does not hold. run must ascend in Compare order, like a
// chunk run. One binary search places run[0] in the set; from there the
// run and the set are walked together, so each tuple costs the
// comparisons that pass it rather than a search of its own.
func (f *Frozen) EachAbsent(run []*Tuple, fn func(Tuple)) {
	if len(run) == 0 {
		return
	}
	var chunks []*chunk
	if f != nil {
		chunks = f.chunks
	}
	ci := sort.Search(len(chunks), func(i int) bool {
		ts := chunks[i].ts
		return ts[len(ts)-1].Compare(*run[0]) >= 0
	})
	k := 0
	if ci < len(chunks) {
		ts := chunks[ci].ts
		k = sort.Search(len(ts), func(k int) bool { return ts[k].Compare(*run[0]) >= 0 })
	}
	for _, t := range run {
		c := 1 // the set's cursor orders after t, or the set is exhausted
		for ci < len(chunks) {
			ts := chunks[ci].ts
			if c = ts[k].Compare(*t); c >= 0 {
				break
			}
			if k++; k == len(ts) {
				ci, k = ci+1, 0
			}
		}
		if c != 0 {
			fn(*t)
		}
	}
}

// RebuildFrozen reconstructs a Frozen from decoded chunk runs, as
// produced by Runs. The runs must be non-empty, individually sorted,
// and globally ascending (strictly — distinct tuples never compare
// equal); violations mean a corrupt or mis-assembled record and are
// rejected rather than silently producing a table whose binary searches
// lie. The chunks point into the runs' tuples through one pointer array
// for the whole table — callers must not mutate the runs afterwards.
func RebuildFrozen(version uint64, runs [][]Tuple) (*Frozen, error) {
	n := 0
	for ri, run := range runs {
		if len(run) == 0 {
			return nil, fmt.Errorf("rel: rebuild frozen: empty run %d", ri)
		}
		n += len(run)
	}
	ptrs := make([]*Tuple, 0, n)
	chunks := make([]*chunk, 0, len(runs))
	var last *Tuple
	for ri, run := range runs {
		start := len(ptrs)
		for k := range run {
			tp := &run[k]
			if last != nil && last.Compare(*tp) >= 0 {
				return nil, fmt.Errorf("rel: rebuild frozen: tuples out of order at run %d index %d", ri, k)
			}
			ptrs = append(ptrs, tp)
			last = tp
		}
		chunks = append(chunks, &chunk{ts: ptrs[start:len(ptrs):len(ptrs)]})
	}
	return &Frozen{version: version, chunks: chunks, n: n}, nil
}
