package provstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// editScript is a seeded random edit script over owned test nodes whose
// link tables span many chunks. Each version edits one or two nodes
// (every node at version 1): mostly point inserts and deletes, now and
// then a burst of ascending inserts that splits chunks and grows the
// view's bucket spines, or a range delete that shrinks and merges
// chunks. Every fifth version also refreshes a carried node's traffic
// counters.
type editScript struct {
	rng   *rand.Rand
	nodes []*testNode
	live  []map[int]bool
}

const scriptKeys = 4000

func newEditScript(seed uint64, owned []string) *editScript {
	es := &editScript{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	for _, addr := range owned {
		es.nodes = append(es.nodes, newTestNode(addr))
		es.live = append(es.live, map[int]bool{})
	}
	return es
}

func (es *editScript) toggle(i, k int) {
	if es.live[i][k] {
		es.nodes[i].remove(k)
		delete(es.live[i], k)
	} else {
		es.nodes[i].add(k)
		es.live[i][k] = true
	}
}

// step applies version v's edits and returns its input.
func (es *editScript) step(v uint64) VersionInput {
	var dirty []int
	if v == 1 {
		for i := range es.nodes {
			dirty = append(dirty, i)
		}
	} else {
		dirty = append(dirty, es.rng.IntN(len(es.nodes)))
		if j := es.rng.IntN(len(es.nodes)); es.rng.IntN(3) == 0 && j != dirty[0] {
			dirty = append(dirty, j)
		}
		slices.Sort(dirty)
	}
	in := VersionInput{Version: v, Time: int64(v) * 10}
	for _, i := range dirty {
		switch r := es.rng.IntN(10); {
		case v == 1 || r == 0:
			start := es.rng.IntN(scriptKeys)
			for k := start; k < start+300; k++ {
				if !es.live[i][k] {
					es.toggle(i, k)
				}
			}
		case r == 1:
			start := es.rng.IntN(scriptKeys)
			for k := start; k < start+250; k++ {
				if es.live[i][k] {
					es.toggle(i, k)
				}
			}
		default:
			for range 1 + es.rng.IntN(4) {
				es.toggle(i, es.rng.IntN(scriptKeys))
			}
		}
		in.States = append(in.States, es.nodes[i].state(i))
	}
	if v%5 == 0 {
		for i, n := range es.nodes {
			if !slices.Contains(dirty, i) {
				n.msgs++
				in.Infos = append(in.Infos, InfoUpdate{OwnedIdx: i, Info: n.info()})
				break
			}
		}
	}
	return in
}

// pinnedStoreFiles is the SHA-256 of every file TestStoreBytesPinned
// leaves behind, recorded by running that test on the commit before
// Append's container memo and blob locator existed: check that commit
// out separately (a git worktree or clone), copy this file into its
// internal/provstore, and run `go test -run TestStoreBytesPinned -v
// ./internal/provstore` — a mismatch prints every file's hash in this
// map's syntax.
var pinnedStoreFiles = map[string]string{
	"MANIFEST":         "a50ea9127560a53a1fffb8fbd07639740fa5102869b007fd1131d5cc9abb1985",
	"seg-00000005.seg": "8a0c5376931c67b4ec34b7c3e0abb3c03c565787f26e3d8a96e7b8d58f0a2179",
	"seg-00000006.seg": "8303b84af1053123358d6ee25624d8a5c3afaae5f9d6e4ac1f6f7c2e2a818021",
	"seg-00000007.seg": "07139b7fb73a6af48183f19d59a36c196c9ff8d21e1935676bc47cd53369bbf7",
	"seg-00000008.seg": "ce597a4dbe3398ce07292a4afbb32ff72c68da4b82793a816e8ab6a54487834a",
	"seg-00000009.seg": "a1448a6b7256d3a38aabda86035aed1a8b3b99c979e78d57f7eae1897be6d5ce",
	"seg-00000010.seg": "6da49a3f8b72e40bd22743af6cb7bf215958f0aacb2f06302b90945e5b0b2733",
	"seg-00000011.seg": "f256d0e2c4f8f87c0415d20f41e35a31301aa5dc3425d23aab68f9521909e2b7",
	"seg-00000012.seg": "dead1c25339edc96bde511250ce14efb7d0f104c39fbd6b8470b9eb3f7e85460",
	"seg-00000013.seg": "d52d6e8d8dbb2c85a6da62d5a1a218542ae713d3df2329e5b05a1f707dda1288",
	"seg-00000014.seg": "efb60dabdd7ac93da2d95a4a4923fb5c36b5fdd27daa8a15f1e4bab62b55d8e2",
	"seg-00000015.seg": "20b0f93183771b5b4ba1e95547bca021b839ca1a0434a3664b6db2c26871e0e0",
	"seg-00000016.seg": "6c43d9ce38bde515e9c4767eb5bcd4e3903c15fb67f728fcf8c9b6db7d799402",
	"seg-00000017.seg": "8e02775eb430705f435f3ddecb4d089a255aebfe2aee6a8e44dadfb41922e3da",
	"seg-00000018.seg": "9da38753c8b330f9b9396384d5471644412646e577efb579f68086d452233deb",
	"seg-00000019.seg": "870fbdd1844b283fecd2b1f451b2489b3758a9ac438d48abdb11e0dd7df5fbc5",
	"seg-00000020.seg": "e2500470774e55cebd46e9cc070f4c175b8cb6aafae46e197c326efc556a61e8",
	"seg-00000021.seg": "5f5d4a0c67d3d009733f8f8e78402c6ebe89ce699944f010b3cefbd27c6504ed",
}

// TestStoreBytesPinned pins the store's bytes beyond compat-v1's seven
// versions: a 320-version edit script over three nodes with
// SealVersions 16, a close and reopen mid-script, and a Retain under
// which retention deletes whole segments. Every file must hash to what
// the writer before the append memo produced.
func TestStoreBytesPinned(t *testing.T) {
	dir := t.TempDir()
	owned := []string{"n0", "n1", "n2"}
	opts := testOptions(owned, func(o *Options) {
		o.SealVersions = 16
		o.Retain = 40
	})
	es := newEditScript(7, owned)
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 320; v++ {
		if v == 161 {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Append(es.step(v)); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("retention kept the first segment (stat error %v)", err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	var mismatch bool
	for name, want := range pinnedStoreFiles {
		if got[name] != want {
			mismatch = true
		}
	}
	if mismatch || len(got) != len(pinnedStoreFiles) {
		var b strings.Builder
		for _, name := range slices.Sorted(maps.Keys(got)) {
			fmt.Fprintf(&b, "\t%q: %q,\n", name, got[name])
		}
		t.Fatalf("store files differ from the pinned writer's (%d files, %d pinned); this build wrote:\n%s",
			len(got), len(pinnedStoreFiles), b.String())
	}
}
