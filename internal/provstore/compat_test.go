package provstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provstore"
	"repro/internal/server"
)

// compatDir holds a store written by the commit before internal/wire
// existed (format generation 1): the 3-node MINCOST line, seven
// versions, one sealed segment plus an active tail. It is the
// cross-commit half of the storage contract — a store an older build
// wrote must open, pass fsck and serve the same state under this one.
const compatDir = "testdata/compat-v1"

// compatDigest is Snapshot.Digest() of version 7 as the writing commit
// held it in memory when it appended it.
const compatDigest = "90dc9c5b2eda9e453085a9b5e413d5f99d84a0fb"

func compatEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := protocols.Build(protocols.MinCost, protocols.NodeNames(3),
		protocols.LineTopology(3, 1), engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func compatOpen(t *testing.T, dir string, e *engine.Engine) (*provstore.Store, *server.Publisher) {
	t.Helper()
	st, err := provstore.Open(dir, provstore.Options{AllNodes: e.Nodes(), Owned: e.Nodes(), SealVersions: 4})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := server.NewPublisherWithOptions(e, server.PublisherOptions{Retain: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	pub.Detach()
	return st, pub
}

// writeCompatStore replays the script that produced compatDir: attach
// (version 1), then six flaps of the n1-n2 link, one version each. It
// returns the digest of the newest version as published from memory.
func writeCompatStore(t *testing.T, dir string) string {
	t.Helper()
	e := compatEngine(t)
	st, pub := compatOpen(t, dir, e)
	for i := 0; i < 3; i++ {
		if err := e.RemoveBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		pub.Publish()
		if err := e.AddBiLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		pub.Publish()
	}
	if v := pub.Current().Version; v != 7 {
		t.Fatalf("script published %d versions, want 7", v)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return pub.Current().Digest().String()
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = b
	}
	return out
}

// TestCompatV1StoreReads opens a copy of the committed store, runs the
// fsck checks, and serves its newest version from disk with the digest
// the writer published.
func TestCompatV1StoreReads(t *testing.T) {
	dir := t.TempDir()
	for name, b := range readDir(t, compatDir) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := provstore.Fsck(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.FirstVersion != 1 || rep.LastVersion != 7 || rep.TornTailBytes != 0 {
		t.Fatalf("fsck of the committed store: %+v", rep)
	}
	// Attaching a publisher appends version 8 to the copy; version 7
	// is below the ring and resolves through Materialize.
	st, pub := compatOpen(t, dir, compatEngine(t))
	defer st.Close()
	snap, ok := pub.At(7)
	if !ok {
		t.Fatal("version 7 of the committed store does not resolve")
	}
	if got := snap.Digest().String(); got != compatDigest {
		t.Fatalf("version 7 from the committed store digests to %s, want %s", got, compatDigest)
	}
}

// TestCompatV1StoreWrites is the other direction: this build, replaying
// the writer's script, produces the committed files byte for byte —
// segments, seal index and manifest.
func TestCompatV1StoreWrites(t *testing.T) {
	dir := t.TempDir()
	if got := writeCompatStore(t, dir); got != compatDigest {
		t.Fatalf("replayed script publishes digest %s, want %s", got, compatDigest)
	}
	want, got := readDir(t, compatDir), readDir(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed store has %d files, committed store %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s: %d bytes differ from the committed %d", name, len(got[name]), len(w))
		}
	}
}
