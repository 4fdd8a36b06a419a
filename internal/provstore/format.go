// Package provstore is the durable tier under the serving stack: a
// log-structured, append-only store of published epoch snapshots. Each
// publish appends one version record — a per-node delta against its
// parent that references content-addressed blobs (table chunk runs,
// provenance view buckets) by hash, so state that did not change
// between epochs is stored exactly once. Segments seal with a succinct
// trie index (trie.go) over blob hashes, version numbers, and
// first-seen tuple keys; sealed segments are mmap'd and read lock-free,
// and every record carries a CRC so recovery can truncate a torn tail
// and cold-start the daemon back to its full history.
package provstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/wire"
)

// Segment files open with this magic; records follow immediately.
const segmentMagic = "NTPS"

// formatVersion is the on-disk format generation, stored in every
// segment header; readers reject generations they do not know.
const formatVersion = 1

// Record types. Every record is framed as
//
//	[type byte][uvarint payload length][payload][crc32-IEEE]
//
// with the CRC covering everything before it (type, length, payload),
// so a scan can both delimit and verify records without trusting any
// other state.
const (
	recHeader  = 'H' // first record of every segment: format + deployment identity
	recBlob    = 'B' // content-addressed payload; its hash is rel.HashBytes(payload)
	recVersion = 'V' // one published version's delta
	recIndex   = 'I' // seal record: the segment's three marshaled tries
)

// maxRecordPayload bounds a single record so a corrupt length cannot
// drive a scan into allocating unbounded memory.
const maxRecordPayload = 1 << 30

var crcTable = crc32.IEEETable

// appendRecord appends one framed record to buf.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, typ)
	buf = wire.AppendBytes(buf, payload)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// errTorn marks an incomplete or CRC-failing record at the end of a
// scan — recoverable in the active segment (truncate), fatal in a
// sealed one.
var errTorn = fmt.Errorf("provstore: torn or corrupt record")

// readRecord decodes the record starting at off in data. It returns
// errTorn when the bytes at off do not hold one complete, CRC-valid
// record. The returned payload aliases data.
func readRecord(data []byte, off int64) (typ byte, payload []byte, next int64, err error) {
	if off < 0 || off >= int64(len(data)) {
		return 0, nil, 0, errTorn
	}
	rest := data[off:]
	r := wire.NewReader(rest)
	typ = r.Byte("record type")
	plen := r.Uvarint("record length")
	if r.Err() != nil || plen > maxRecordPayload {
		return 0, nil, 0, errTorn
	}
	hdrLen := int64(len(rest) - r.Len())
	total := hdrLen + int64(plen) + 4
	if int64(len(rest)) < total {
		return 0, nil, 0, errTorn
	}
	body := rest[:hdrLen+int64(plen)]
	want := binary.LittleEndian.Uint32(rest[hdrLen+int64(plen):][:4])
	if crc32.Checksum(body, crcTable) != want {
		return 0, nil, 0, errTorn
	}
	return typ, body[hdrLen:], off + total, nil
}

// header identifies a segment: the format generation, the segment's
// sequence number, and the deployment slice it belongs to. A store
// refuses to open segments whose identity disagrees with its options —
// mixing shards' stores is data corruption waiting to happen.
type header struct {
	format   uint64
	seq      uint64
	shardIdx int
	shardN   int
	allNodes []string
	owned    []string
}

func (h *header) marshal() []byte {
	b := wire.AppendUvarint(nil, h.format)
	b = wire.AppendUvarint(b, h.seq)
	b = wire.AppendUvarint(b, uint64(h.shardIdx))
	b = wire.AppendUvarint(b, uint64(h.shardN))
	b = appendStrings(b, h.allNodes)
	return appendStrings(b, h.owned)
}

func unmarshalHeader(payload []byte) (*header, error) {
	r := wire.NewReader(payload)
	h := &header{format: r.Uvarint("format")}
	if h.format != formatVersion {
		r.Failf("segment format %d, this build reads %d", h.format, formatVersion)
	}
	h.seq = r.Uvarint("seq")
	h.shardIdx = r.Int("shard index")
	h.shardN = r.Int("shard total")
	h.allNodes = decodeStrings(&r, "all nodes")
	h.owned = decodeStrings(&r, "owned nodes")
	if err := r.Done("header"); err != nil {
		return nil, fmt.Errorf("provstore: segment header: %w", err)
	}
	return h, nil
}

// mismatch reports how h's deployment identity differs from want's,
// or nil when the segment belongs with want.
func (h *header) mismatch(want *header, name string) error {
	if h.shardIdx != want.shardIdx || h.shardN != want.shardN {
		return fmt.Errorf("provstore: %s written by shard %d/%d, store opened as %d/%d",
			name, h.shardIdx, h.shardN, want.shardIdx, want.shardN)
	}
	if !slices.Equal(h.allNodes, want.allNodes) || !slices.Equal(h.owned, want.owned) {
		return fmt.Errorf("provstore: %s written for a different node set", name)
	}
	return nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = wire.AppendString(b, s)
	}
	return b
}

// decodeStrings takes a counted string list; an empty list decodes to
// nil.
func decodeStrings(r *wire.Reader, what string) []string {
	n := r.Count(what, maxRecordPayload)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, wire.Prealloc(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.String(what))
	}
	return out
}

// Info is the published per-node metadata a version record carries;
// the server's NodeInfo is it plus the address (which a record implies
// by the owned-node index).
type Info struct {
	Neighbors []string
	Tuples    int
	Prov      provenance.Stats
	SentMsgs  int
	SentBytes int
}

func appendInfo(b []byte, info Info) []byte {
	b = appendStrings(b, info.Neighbors)
	for _, f := range []int{info.Tuples, info.Prov.ProvEntries, info.Prov.ExecEntries,
		info.Prov.Pins, info.SentMsgs, info.SentBytes} {
		b = wire.AppendUvarint(b, uint64(f))
	}
	return b
}

func decodeInfo(r *wire.Reader) Info {
	info := Info{Neighbors: decodeStrings(r, "neighbors")}
	for _, f := range []*int{&info.Tuples, &info.Prov.ProvEntries, &info.Prov.ExecEntries,
		&info.Prov.Pins, &info.SentMsgs, &info.SentBytes} {
		*f = r.Int("info counter")
	}
	return info
}

// tableEntry is one frozen table inside a state entry: its version and
// the hashes of its chunk-run blobs, in spine order.
type tableEntry struct {
	name    string
	version uint64
	chunks  []rel.ID
}

// blobRef is one provenance-view bucket slot: absent (empty bucket) or
// the hash of the bucket's blob.
type blobRef struct {
	present bool
	hash    rel.ID
}

// viewEntry is one node's provenance view inside a state entry.
type viewEntry struct {
	version uint64
	prov    []blobRef
	exec    []blobRef
	pins    []blobRef
}

// stateEntry is one dirty node's full delta in a version record. The
// chunk/bucket hashes make it self-contained: materializing it needs
// only the referenced blobs, not any earlier record.
type stateEntry struct {
	ownedIdx  int
	info      Info
	tables    []tableEntry
	view      viewEntry
	firstSeen []rel.ID // VIDs of tuples first visible at this version
}

// infoEntry refreshes a carried node's traffic counters without
// re-recording its state.
type infoEntry struct {
	ownedIdx int
	info     Info
}

// versionRecord is one published version: the per-owned-node resolution
// vectors (which record holds each node's state/info) plus the entries
// for the nodes that changed.
type versionRecord struct {
	version  uint64
	time     int64
	minState uint64 // min over stateVers: the oldest record this version depends on
	// stateVers[i]/infoVers[i] name the version whose record carries
	// owned node i's state/info entry; both are ≤ version and the
	// node's sequence of either is nondecreasing across versions.
	stateVers []uint64
	infoVers  []uint64
	states    []stateEntry
	infos     []infoEntry
}

// appendTo appends the record's payload to b.
func (vr *versionRecord) appendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, vr.version)
	b = wire.AppendUvarint(b, uint64(vr.time))
	b = wire.AppendUvarint(b, vr.minState)
	for _, sv := range vr.stateVers {
		b = wire.AppendUvarint(b, vr.version-sv)
	}
	for _, iv := range vr.infoVers {
		b = wire.AppendUvarint(b, vr.version-iv)
	}
	b = wire.AppendUvarint(b, uint64(len(vr.states)))
	for _, se := range vr.states {
		b = wire.AppendUvarint(b, uint64(se.ownedIdx))
		b = appendInfo(b, se.info)
		b = wire.AppendUvarint(b, uint64(len(se.tables)))
		for _, te := range se.tables {
			b = wire.AppendString(b, te.name)
			b = wire.AppendUvarint(b, te.version)
			b = appendIDs(b, te.chunks)
		}
		b = wire.AppendUvarint(b, se.view.version)
		for _, spine := range [][]blobRef{se.view.prov, se.view.exec, se.view.pins} {
			b = wire.AppendUvarint(b, uint64(len(spine)))
			for _, ref := range spine {
				if ref.present {
					b = append(append(b, 1), ref.hash[:]...)
				} else {
					b = append(b, 0)
				}
			}
		}
		b = appendIDs(b, se.firstSeen)
	}
	b = wire.AppendUvarint(b, uint64(len(vr.infos)))
	for _, ie := range vr.infos {
		b = wire.AppendUvarint(b, uint64(ie.ownedIdx))
		b = appendInfo(b, ie.info)
	}
	return b
}

func appendIDs(b []byte, ids []rel.ID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = append(b, id[:]...)
	}
	return b
}

func decodeIDs(r *wire.Reader, what string) []rel.ID {
	n := r.Count(what, maxRecordPayload/len(rel.ID{}))
	ids := make([]rel.ID, 0, wire.Prealloc(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		ids = append(ids, rel.DecodeID(r, what))
	}
	return ids
}

// unmarshalVersionRecord decodes and validates one version record.
// nOwned is the deployment's owned-node count from the segment header;
// every index and resolution vector is checked against it so a corrupt
// record fails decode instead of panicking a materialization. A failed
// check is recorded on the reader like a truncation, so only the first
// problem is reported and nothing after it is trusted.
func unmarshalVersionRecord(payload []byte, nOwned int) (*versionRecord, error) {
	r := wire.NewReader(payload)
	vr := &versionRecord{version: r.Uvarint("version")}
	if vr.version == 0 {
		r.Failf("version record for version 0")
	}
	t := r.Uvarint("time")
	if t > math.MaxInt64 {
		r.Failf("version %d time overflows", vr.version)
	}
	vr.time = int64(t)
	vr.minState = r.Uvarint("min state version")
	vr.stateVers = make([]uint64, nOwned)
	vr.infoVers = make([]uint64, nOwned)
	minState := vr.version
	for i := range vr.stateVers {
		d := r.Uvarint("state version delta")
		if d >= vr.version {
			r.Failf("version %d: state delta %d underflows", vr.version, d)
		}
		vr.stateVers[i] = vr.version - d
		minState = min(minState, vr.stateVers[i])
	}
	for i := range vr.infoVers {
		d := r.Uvarint("info version delta")
		if d >= vr.version {
			r.Failf("version %d: info delta %d underflows", vr.version, d)
		}
		vr.infoVers[i] = vr.version - d
		if vr.infoVers[i] < vr.stateVers[i] {
			r.Failf("version %d: node %d info version %d behind state version %d",
				vr.version, i, vr.infoVers[i], vr.stateVers[i])
		}
	}
	if vr.minState != minState {
		r.Failf("version %d: stored min state version %d, computed %d",
			vr.version, vr.minState, minState)
	}
	ns := r.Count("state entry count", nOwned)
	vr.states = make([]stateEntry, 0, ns)
	seen := make(map[int]bool, ns)
	for i := 0; i < ns && r.Err() == nil; i++ {
		se := stateEntry{ownedIdx: r.Int("state owned index")}
		if se.ownedIdx >= nOwned || seen[se.ownedIdx] {
			r.Failf("version %d: bad state entry index %d", vr.version, se.ownedIdx)
			break
		}
		seen[se.ownedIdx] = true
		if vr.stateVers[se.ownedIdx] != vr.version {
			r.Failf("version %d: state entry for node %d but vector points at %d",
				vr.version, se.ownedIdx, vr.stateVers[se.ownedIdx])
		}
		se.info = decodeInfo(&r)
		nt := r.Count("table count", maxRecordPayload)
		se.tables = make([]tableEntry, 0, wire.Prealloc(nt))
		for ti := 0; ti < nt && r.Err() == nil; ti++ {
			te := tableEntry{name: r.String("table name")}
			if ti > 0 && se.tables[ti-1].name >= te.name {
				r.Failf("version %d: tables out of order", vr.version)
			}
			te.version = r.Uvarint("table version")
			te.chunks = decodeIDs(&r, "chunk")
			se.tables = append(se.tables, te)
		}
		se.view.version = r.Uvarint("view version")
		for _, spine := range []*[]blobRef{&se.view.prov, &se.view.exec, &se.view.pins} {
			nb := r.Count("bucket count", maxRecordPayload/21)
			refs := make([]blobRef, 0, wire.Prealloc(nb))
			for bi := 0; bi < nb && r.Err() == nil; bi++ {
				switch p := r.Byte("bucket presence"); p {
				case 0:
					refs = append(refs, blobRef{})
				case 1:
					refs = append(refs, blobRef{present: true, hash: rel.DecodeID(&r, "bucket hash")})
				default:
					r.Failf("bucket presence byte %d", p)
				}
			}
			*spine = refs
		}
		se.firstSeen = decodeIDs(&r, "first-seen VID")
		vr.states = append(vr.states, se)
	}
	ni := r.Count("info entry count", nOwned)
	vr.infos = make([]infoEntry, 0, ni)
	for i := 0; i < ni && r.Err() == nil; i++ {
		ie := infoEntry{ownedIdx: r.Int("info owned index")}
		if ie.ownedIdx >= nOwned || seen[ie.ownedIdx] {
			r.Failf("version %d: bad info entry index %d", vr.version, ie.ownedIdx)
			break
		}
		seen[ie.ownedIdx] = true
		if vr.infoVers[ie.ownedIdx] != vr.version {
			r.Failf("version %d: info entry for node %d but vector points at %d",
				vr.version, ie.ownedIdx, vr.infoVers[ie.ownedIdx])
		}
		ie.info = decodeInfo(&r)
		vr.infos = append(vr.infos, ie)
	}
	if err := r.Done("version record"); err != nil {
		return nil, fmt.Errorf("provstore: version record: %w", err)
	}
	return vr, nil
}

// eachBlob calls fn with every blob hash the record references: each
// state entry's table chunks and present view buckets.
func (vr *versionRecord) eachBlob(fn func(rel.ID)) {
	for i := range vr.states {
		se := &vr.states[i]
		for _, te := range se.tables {
			for _, h := range te.chunks {
				fn(h)
			}
		}
		for _, spine := range [][]blobRef{se.view.prov, se.view.exec, se.view.pins} {
			for _, ref := range spine {
				if ref.present {
					fn(ref.hash)
				}
			}
		}
	}
}

// stateFor returns the state entry for an owned index, which the
// caller has resolved to this record via stateVers.
func (vr *versionRecord) stateFor(ownedIdx int) (*stateEntry, bool) {
	for i := range vr.states {
		if vr.states[i].ownedIdx == ownedIdx {
			return &vr.states[i], true
		}
	}
	return nil, false
}

// infoFor returns the effective info for an owned index, from either
// entry list.
func (vr *versionRecord) infoFor(ownedIdx int) (Info, bool) {
	if se, ok := vr.stateFor(ownedIdx); ok {
		return se.info, true
	}
	for i := range vr.infos {
		if vr.infos[i].ownedIdx == ownedIdx {
			return vr.infos[i].info, true
		}
	}
	return Info{}, false
}

// versionKey renders a version number as its fixed-width big-endian
// trie key, so version keys sort numerically.
func versionKey(v uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], v)
	return k[:]
}

// firstSeenKey renders a (node, tuple-hash) pair as its trie key. The
// address cannot contain NUL (engine addresses are hostnames), so the
// separator keeps the key set prefix-free.
func firstSeenKey(addr string, vid rel.ID) string {
	return addr + "\x00" + string(vid[:])
}

// appendChunkBlob appends one frozen-table chunk run's blob to b.
func appendChunkBlob(b []byte, run []*rel.Tuple) []byte {
	b = wire.AppendUvarint(b, uint64(len(run)))
	for _, t := range run {
		b = rel.AppendTuple(b, *t)
	}
	return b
}

// decodeChunkBlob decodes one chunk-run blob.
func decodeChunkBlob(b []byte) ([]rel.Tuple, error) {
	r := wire.NewReader(b)
	n := r.Count("chunk tuple count", maxRecordPayload)
	run := make([]rel.Tuple, 0, wire.Prealloc(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		run = append(run, rel.DecodeTuple(&r))
	}
	if err := r.Done("chunk blob"); err != nil {
		return nil, fmt.Errorf("provstore: chunk blob: %w", err)
	}
	return run, nil
}
