package server

import (
	"crypto/sha1"
	"encoding/binary"
	"sort"

	"repro/internal/rel"
)

// Snapshot digests: deterministic content hashes over the frozen state
// a snapshot serves, used by the distributed-engine acceptance tier to
// assert byte-parity between deployment shapes. A node digest covers
// everything published for the node — metadata, every persistent table
// tuple in canonical encoding, and the provenance view's deterministic
// persistence buckets — but deliberately not the ShardSpec, so the
// digest of node X is comparable across a single-process snapshot, a
// shard's snapshot, and a distributed member's snapshot.

func putU64(h *digestWriter, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.write(b[:])
}

func putStr(h *digestWriter, s string) {
	putU64(h, uint64(len(s)))
	h.write([]byte(s))
}

// digestWriter length-frames every write so part boundaries are
// unambiguous — the rule rel.HashParts follows, not its bytes: lengths
// here are big-endian, HashParts writes them little-endian.
type digestWriter struct {
	h interface{ Write([]byte) (int, error) }
}

func (w *digestWriter) write(b []byte) { w.h.Write(b) }

func (w *digestWriter) frame(b []byte) {
	putU64(w, uint64(len(b)))
	w.write(b)
}

// NodeDigest hashes one owned node's full published partition; ok is
// false for nodes this snapshot does not hold. Two snapshots give a
// node equal digests iff they publish byte-identical state for it.
func (s *Snapshot) NodeDigest(addr string) (rel.ID, bool) {
	st := s.stateOf(addr)
	if st == nil {
		return rel.ID{}, false
	}
	h := sha1.New()
	w := &digestWriter{h: h}
	putStr(w, st.info.Addr)
	putU64(w, uint64(len(st.info.Neighbors)))
	for _, nb := range st.info.Neighbors {
		putStr(w, nb)
	}
	putU64(w, uint64(st.info.Tuples))
	putU64(w, uint64(st.info.Prov.ProvEntries))
	putU64(w, uint64(st.info.Prov.ExecEntries))
	putU64(w, uint64(st.info.Prov.Pins))
	putU64(w, uint64(st.info.SentMsgs))
	putU64(w, uint64(st.info.SentBytes))

	names := make([]string, 0, len(st.tables))
	for name := range st.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	putU64(w, uint64(len(names)))
	for _, name := range names {
		putStr(w, name)
		st.tables[name].Runs(func(ts []*rel.Tuple) {
			for _, t := range ts {
				w.frame(rel.MarshalTuple(*t))
			}
		})
	}

	prov, exec, pins := st.view.PersistBuckets()
	for _, dir := range [][][]byte{prov, exec, pins} {
		putU64(w, uint64(len(dir)))
		for _, bucket := range dir {
			w.frame(bucket)
		}
	}

	var id rel.ID
	copy(id[:], h.Sum(nil))
	return id, true
}

// Digest hashes the whole snapshot: version, virtual time, and every
// owned node's digest in address order. Two snapshots of the same
// shard shape are byte-identical iff their digests match; across
// shapes, compare per-node digests instead.
func (s *Snapshot) Digest() rel.ID {
	parts := make([][]byte, 0, 2+len(s.Nodes))
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], s.Version)
	binary.BigEndian.PutUint64(hdr[8:], uint64(s.Time))
	parts = append(parts, hdr[:])
	for _, addr := range s.Nodes {
		d, _ := s.NodeDigest(addr)
		parts = append(parts, d[:])
	}
	return rel.HashParts(parts...)
}
