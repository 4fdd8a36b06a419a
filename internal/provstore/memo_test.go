package provstore

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/wire"
)

// stateDigest hashes one node's tables and view the way a snapshot
// digest covers them: every table's tuples in canonical encoding, in
// table-name order, then every bucket directory's persisted encodings.
func stateDigest(tables map[string]*rel.Frozen, view *provenance.View) rel.ID {
	var b []byte
	for _, name := range slices.Sorted(maps.Keys(tables)) {
		b = wire.AppendString(b, name)
		tables[name].Runs(func(run []*rel.Tuple) {
			for _, t := range run {
				b = wire.AppendBytes(b, rel.MarshalTuple(*t))
			}
		})
	}
	prov, exec, pins := view.PersistBuckets()
	for _, dir := range [][][]byte{prov, exec, pins} {
		b = wire.AppendUvarint(b, uint64(len(dir)))
		for _, enc := range dir {
			b = wire.AppendBytes(b, enc)
		}
	}
	return rel.HashBytes(b)
}

// TestAppendMemoSound runs a seeded edit script that splits and merges
// chunks and grows bucket spines, and after every Append checks what the
// memo decided against a from-scratch encode: every chunk and bucket
// hash in the decoded version record is the hash of the container the
// input published, and Materialize gives back the published state.
func TestAppendMemoSound(t *testing.T) {
	owned := []string{"n0", "n1", "n2"}
	st, err := Open(t.TempDir(), testOptions(owned, func(o *Options) { o.SealVersions = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	es := newEditScript(11, owned)
	published := make([]NodeState, len(owned))
	infos := make([]Info, len(owned))
	for v := uint64(1); v <= 200; v++ {
		in := es.step(v)
		if err := st.Append(in); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
		st.mu.RLock()
		vr, err := st.findVersionLocked(v)
		st.mu.RUnlock()
		if err != nil {
			t.Fatalf("version %d record: %v", v, err)
		}
		if len(vr.states) != len(in.States) {
			t.Fatalf("version %d: %d state entries, want %d", v, len(vr.states), len(in.States))
		}
		for i, ns := range in.States {
			se := vr.states[i]
			for _, te := range se.tables {
				var want []rel.ID
				ns.Tables[te.name].Runs(func(run []*rel.Tuple) {
					want = append(want, rel.HashBytes(appendChunkBlob(nil, run)))
				})
				if !slices.Equal(te.chunks, want) {
					t.Fatalf("version %d node %d table %s: chunk hashes differ from a fresh encode", v, ns.OwnedIdx, te.name)
				}
			}
			prov, exec, pins := ns.View.PersistBuckets()
			for si, refs := range [][]blobRef{se.view.prov, se.view.exec, se.view.pins} {
				dir := [][][]byte{prov, exec, pins}[si]
				if len(refs) != len(dir) {
					t.Fatalf("version %d node %d spine %d: %d refs for %d buckets", v, ns.OwnedIdx, si, len(refs), len(dir))
				}
				for bi, ref := range refs {
					if ref.present != (dir[bi] != nil) || (ref.present && ref.hash != rel.HashBytes(dir[bi])) {
						t.Fatalf("version %d node %d spine %d bucket %d: ref differs from a fresh encode", v, ns.OwnedIdx, si, bi)
					}
				}
			}
			published[ns.OwnedIdx] = ns
			infos[ns.OwnedIdx] = ns.Info
		}
		for _, iu := range in.Infos {
			infos[iu.OwnedIdx] = iu.Info
		}
		vd, err := st.Materialize(v)
		if err != nil {
			t.Fatalf("materialize %d: %v", v, err)
		}
		for i, nd := range vd.Nodes {
			if got, want := stateDigest(nd.Tables, nd.View), stateDigest(published[i].Tables, published[i].View); got != want {
				t.Fatalf("version %d node %d: materialized digest %s, published %s", v, i, got.Short(), want.Short())
			}
			if !reflect.DeepEqual(nd.Info, infos[i]) {
				t.Fatalf("version %d node %d: info %+v, want %+v", v, i, nd.Info, infos[i])
			}
		}
	}
}

// TestAppendFailedWriteLeavesNothing fails some appends at the file
// write — the active segment's handle is swapped for a read-only one —
// and retries them. Nothing a failed append staged may survive it: the
// store must end byte-identical to one that never failed.
func TestAppendFailedWriteLeavesNothing(t *testing.T) {
	owned := []string{"n0", "n1", "n2"}
	opts := testOptions(owned, func(o *Options) { o.SealVersions = 8 })
	cleanDir, failDir := filepath.Join(t.TempDir(), "clean"), filepath.Join(t.TempDir(), "fail")
	clean, err := Open(cleanDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	failing, err := Open(failDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	es := newEditScript(5, owned)
	failures := 0
	for v := uint64(1); v <= 120; v++ {
		in := es.step(v)
		if err := clean.Append(in); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
		if v%3 == 1 {
			rw := failing.active.f
			ro, err := os.Open(filepath.Join(failDir, failing.active.name))
			if err != nil {
				t.Fatal(err)
			}
			failing.active.f = ro
			err = failing.Append(in)
			failing.active.f = rw
			ro.Close()
			if err == nil {
				t.Fatalf("append %d through a read-only handle succeeded", v)
			}
			if failing.LastVersion() != v-1 {
				t.Fatalf("failed append %d advanced the store to %d", v, failing.LastVersion())
			}
			failures++
		}
		if err := failing.Append(in); err != nil {
			t.Fatalf("retried append %d: %v", v, err)
		}
	}
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	if err := failing.Close(); err != nil {
		t.Fatal(err)
	}
	want, got := dirFiles(t, cleanDir), dirFiles(t, failDir)
	if len(got) != len(want) {
		t.Fatalf("%d failed appends: %d files, want %d", failures, len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s differs from the store that never failed", name)
		}
	}
}

// TestStoreRewritesBlobsRetentionDropped brings back a state whose blobs
// lived only in segments retention has deleted: the store must write
// them again rather than trust where it last saw them.
func TestStoreRewritesBlobsRetentionDropped(t *testing.T) {
	st, err := Open(t.TempDir(), testOptions([]string{"n0"}, func(o *Options) {
		o.SealVersions = 2
		o.Retain = 3
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := newTestNode("n0")
	n.add(1)
	want := n.tbl.Freeze().Tuples()
	for v := uint64(1); v <= 14; v++ {
		switch {
		case v == 2:
			n.remove(1)
		case v > 2 && v < 14:
			n.remove(int(v) - 1)
		case v == 14:
			n.remove(int(v) - 1)
			n.add(1)
		}
		if v > 1 && v < 14 {
			n.add(int(v))
		}
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
	}
	if st.OldestVersion() <= 2 {
		t.Fatalf("retention kept version %d", st.OldestVersion())
	}
	vd, err := st.Materialize(14)
	if err != nil {
		t.Fatalf("materialize the state version 1 held: %v", err)
	}
	expectNode(t, vd.Nodes[0], want, n.info())
}

func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestAppendAllocsScaleWithDelta is the O(delta) guard: appending a
// one-tuple change allocates the same, within a small constant, whether
// the node's table is 1 chunk or 40 and whether the store has 1 sealed
// segment or 20.
func TestAppendAllocsScaleWithDelta(t *testing.T) {
	const runs = 50
	measure := func(chunks, sealed int) float64 {
		dir := t.TempDir()
		n := newTestNode("n0")
		var runLen []int
		for k := 0; ; k += 2 {
			n.add(k)
			runLen = runLen[:0]
			n.tbl.Freeze().Runs(func(run []*rel.Tuple) { runLen = append(runLen, len(run)) })
			if len(runLen) == chunks && runLen[chunks-1] >= 64 {
				break
			}
		}
		keys := n.tbl.Len()
		// One version per sealed segment, each sealing on append.
		opts := testOptions([]string{"n0"}, func(o *Options) { o.SealVersions = 1 })
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(1); v <= uint64(sealed); v++ {
			n.add(-2 * int(v))
			if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		opts.SealVersions = 1 << 20
		if st, err = Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// Each measured version inserts one odd key inside the table's
		// range, so exactly one chunk and its buckets change.
		ins := make([]VersionInput, runs+1)
		for i := range ins {
			v := uint64(sealed + 1 + i)
			n.add(2*((i*7919)%keys) + 1)
			ins[i] = VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := st.Append(ins[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	base := measure(1, 1)
	for _, c := range []struct{ chunks, sealed int }{{40, 1}, {1, 20}, {40, 20}} {
		got := measure(c.chunks, c.sealed)
		t.Logf("%d chunks, %d sealed: %.1f allocs per append (1 and 1: %.1f)", c.chunks, c.sealed, got, base)
		if got > base+2 {
			t.Errorf("one-tuple append with %d chunks and %d sealed segments: %.1f allocs, %.1f with 1 and 1",
				c.chunks, c.sealed, got, base)
		}
	}
}
