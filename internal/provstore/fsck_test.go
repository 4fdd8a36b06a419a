package provstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// TestFsckAgreesWithOpen mutates copies of a closed store's directory
// and requires Fsck to pass exactly the copies Open opens. Of a tail cut
// at a byte offset, Fsck must count as torn the bytes recovery removes
// (all of them when the cut lands before the header is whole), and
// once Open has recovered the copy, Fsck must find it clean.
func TestFsckAgreesWithOpen(t *testing.T) {
	base := t.TempDir()
	dir, opts := buildCrashFixture(t, base)
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	write := func(path string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	sealed, tail := read(filepath.Join(dir, segmentName(1))), read(filepath.Join(dir, segmentName(2)))

	// The same script written by shard 1/2: its tail is segment 2 too.
	foreignDir := filepath.Join(base, "foreign")
	foreignOpts := opts
	foreignOpts.Shard = ShardInfo{Index: 1, Total: 2}
	st, err := Open(foreignDir, foreignOpts)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode("n0")
	for v := uint64(1); v <= 7; v++ {
		n.add(int(v))
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	foreignTail := read(filepath.Join(foreignDir, segmentName(2)))

	type mutation struct {
		name  string
		apply func(dir string)
		cut   int // the tail's length after apply, -1 when apply does not cut it
	}
	muts := []mutation{
		{"clean", func(string) {}, -1},
		{"stray segment below the tail", func(d string) { write(filepath.Join(d, segmentName(0)), sealed) }, -1},
		{"tail copied past itself", func(d string) { write(filepath.Join(d, segmentName(9)), tail) }, -1},
		{"tail from shard 1/2", func(d string) { write(filepath.Join(d, segmentName(2)), foreignTail) }, -1},
	}
	for cut := 0; cut <= len(tail); cut++ {
		muts = append(muts, mutation{fmt.Sprintf("tail cut at %d/%d", cut, len(tail)),
			func(d string) { write(filepath.Join(d, segmentName(2)), tail[:cut]) }, cut})
	}
	for i, m := range muts {
		cdir := filepath.Join(base, fmt.Sprintf("m%d", i))
		copyDir(t, dir, cdir)
		m.apply(cdir)
		rep, err := Fsck(cdir, nil, false)
		if err != nil {
			t.Fatalf("%s: fsck: %v", m.name, err)
		}
		st, err := Open(cdir, opts)
		if rep.Ok() != (err == nil) {
			t.Fatalf("%s: fsck ok=%v (problems %q), open error %v", m.name, rep.Ok(), rep.Problems, err)
		}
		if err != nil {
			os.RemoveAll(cdir)
			continue
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if m.cut >= 0 {
			// Recovery truncates the tail, or recreates it holding only
			// its header when the cut left no whole header.
			kept := len(read(filepath.Join(cdir, segmentName(2))))
			want := int64(m.cut - kept)
			if kept > m.cut {
				want = int64(m.cut)
			}
			if rep.TornTailBytes != want {
				t.Fatalf("%s: fsck counts %d torn bytes, recovery removed %d", m.name, rep.TornTailBytes, want)
			}
		}
		after, err := Fsck(cdir, nil, false)
		if err != nil || !after.Ok() || after.TornTailBytes != 0 {
			t.Fatalf("%s: fsck after Open: %+v, %v", m.name, after, err)
		}
		os.RemoveAll(cdir)
	}
}

// TestFsckChecksSealedIndexValues moves one blob's offset in a sealed
// segment's blob trie by a byte, with a valid record CRC and the
// manifest's size and index offset still right: Fsck must see that the
// index disagrees with the records.
func TestFsckChecksSealedIndexValues(t *testing.T) {
	dir, _ := buildCrashFixture(t, t.TempDir())
	_, _, entries, err := readManifest(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("manifest: %v, %d entries", err, len(entries))
	}
	e := entries[0]
	path := filepath.Join(dir, e.name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _, err := readRecord(data, e.indexOff)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(payload)
	var tries [3]*Trie
	for i := range tries {
		if tries[i], err = UnmarshalTrie(&r); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	var vals []uint64
	_ = tries[0].Walk(func(k []byte, v uint64) error {
		keys, vals = append(keys, bytes.Clone(k)), append(vals, v)
		return nil
	})
	vals[len(vals)-1]++
	if tries[0], err = BuildTrie(keys, vals); err != nil {
		t.Fatal(err)
	}
	var index []byte
	for _, tr := range tries {
		index = tr.Marshal(index)
	}
	rec := appendRecord(nil, recIndex, index)
	if int64(len(rec)) != e.size-e.indexOff {
		t.Fatalf("rewritten index record is %d bytes, the original %d", len(rec), e.size-e.indexOff)
	}
	if err := os.WriteFile(path, append(data[:e.indexOff:e.indexOff], rec...), 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("fsck passed a blob index that points one byte into a record")
	}
}
