package provstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/wire"
)

func buildKeys(t *testing.T, n int, seed int64) ([][]byte, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < n {
		// Fixed-length keys (like hashes and versions) are prefix-free
		// by construction.
		k := make([]byte, 20)
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() >> 8
	}
	return keys, vals
}

func TestTrieLookup(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 300, 2000} {
		keys, vals := buildKeys(t, n, int64(n)+1)
		tr, err := BuildTrie(keys, vals)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		for i, k := range keys {
			got, ok := tr.Get(k)
			if !ok || got != vals[i] {
				t.Fatalf("n=%d: key %d: got %d,%v want %d", n, i, got, ok, vals[i])
			}
		}
		// Probes that differ in the last byte must miss.
		for _, k := range keys {
			miss := append(append([]byte(nil), k...), 0)
			if _, ok := tr.Get(miss); ok {
				t.Fatalf("n=%d: extended key should miss", n)
			}
			if _, ok := tr.Get(k[:len(k)-1]); ok {
				t.Fatalf("n=%d: truncated key should miss", n)
			}
		}
		if _, ok := tr.Get(nil); ok {
			t.Fatalf("n=%d: empty probe should miss", n)
		}
	}
}

func TestTrieVariableLengthKeys(t *testing.T) {
	// The first-seen key shape: NUL-terminated address + fixed suffix.
	var keys [][]byte
	var vals []uint64
	i := uint64(0)
	for _, addr := range []string{"a", "ab", "abc", "b", "zz-long-host-name"} {
		for k := 0; k < 3; k++ {
			key := append([]byte(addr), 0)
			var suffix [20]byte
			suffix[0] = byte(k)
			key = append(key, suffix[:]...)
			keys = append(keys, key)
			vals = append(vals, i)
			i++
		}
	}
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	tr, err := BuildTrie(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, k := range keys {
		if _, ok := tr.Get(k); ok {
			found++
		}
	}
	if found != len(keys) {
		t.Fatalf("found %d of %d keys", found, len(keys))
	}
}

func TestTrieRejectsBadKeySets(t *testing.T) {
	if _, err := BuildTrie([][]byte{{1}, {1}}, []uint64{0, 0}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := BuildTrie([][]byte{{2}, {1}}, []uint64{0, 0}); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	if _, err := BuildTrie([][]byte{{1}, {1, 2}}, []uint64{0, 0}); err == nil {
		t.Fatal("prefix key accepted")
	}
	if _, err := BuildTrie([][]byte{{}}, []uint64{0}); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := BuildTrie([][]byte{{1}}, []uint64{0, 1}); err == nil {
		t.Fatal("mismatched values accepted")
	}
}

func TestTrieWalk(t *testing.T) {
	keys, vals := buildKeys(t, 500, 7)
	tr, err := BuildTrie(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = tr.Walk(func(key []byte, value uint64) error {
		if i >= len(keys) {
			return fmt.Errorf("walk visited more than %d keys", len(keys))
		}
		if !bytes.Equal(key, keys[i]) || value != vals[i] {
			return fmt.Errorf("walk mismatch at %d", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("walk visited %d of %d keys", i, len(keys))
	}
}

func TestTrieMarshalRoundtrip(t *testing.T) {
	keys, vals := buildKeys(t, 800, 11)
	tr, err := BuildTrie(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(tr.Marshal(nil))
	got, err := UnmarshalTrie(&r)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok := got.Get(k)
		if !ok || v != vals[i] {
			t.Fatalf("after roundtrip: key %d: got %d,%v want %d", i, v, ok, vals[i])
		}
	}
}

func TestTrieVersionKeysSortNumerically(t *testing.T) {
	var keys [][]byte
	var vals []uint64
	for v := uint64(1); v <= 300; v++ {
		keys = append(keys, versionKey(v))
		vals = append(vals, v*10)
	}
	tr, err := BuildTrie(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 300; v++ {
		got, ok := tr.Get(versionKey(v))
		if !ok || got != v*10 {
			t.Fatalf("version %d: got %d,%v", v, got, ok)
		}
	}
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], 301)
	if _, ok := tr.Get(k[:]); ok {
		t.Fatal("absent version found")
	}
}

func TestBitvecRankSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := &bitvec{}
	var bits []bool
	for i := 0; i < 1000; i++ {
		v := rng.Intn(3) == 0
		b.appendBit(v)
		bits = append(bits, v)
	}
	b.finish()
	ones, zeros := 0, 0
	for i, v := range bits {
		if got := b.rank0(i); got != zeros {
			t.Fatalf("rank0(%d)=%d want %d", i, got, zeros)
		}
		if v {
			ones++
			if got := b.select1(ones); got != i {
				t.Fatalf("select1(%d)=%d want %d", ones, got, i)
			}
		} else {
			zeros++
		}
		if got := b.rank1(i); got != ones {
			t.Fatalf("rank1(%d)=%d want %d", i, got, ones)
		}
	}
	if got := b.select1(ones + 1); got != b.n {
		t.Fatalf("select1 past end = %d want %d", got, b.n)
	}
}
