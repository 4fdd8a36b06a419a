package provstore

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/rel"
	"repro/internal/wire"
)

// manifestName is the store's root metadata file: the sealed-segment
// catalog. It is replaced atomically (write-temp, fsync, rename), so a
// crash leaves either the old or the new manifest, never a torn one.
// The active segment is deliberately absent — it is rediscovered by
// scanning, which is what makes its torn tail recoverable.
const manifestName = "MANIFEST"

const manifestHeader = "nettrails-provstore-manifest 1"

// segmentName renders the file name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("seg-%08d.seg", seq)
}

// manifestEntry is one sealed segment's catalog row.
type manifestEntry struct {
	name     string
	seq      uint64
	first    uint64 // first version in the segment (0 when none)
	last     uint64 // last version in the segment (0 when none)
	size     int64
	indexOff int64
	// lastRef is the newest version anywhere in the store whose record
	// references a blob stored in this segment: the segment must
	// outlive every record that depends on it, so retention may delete
	// it only when both last and lastRef age out.
	lastRef uint64
}

// writeManifest atomically replaces the manifest with the given rows.
func writeManifest(dir string, shardIdx, shardN int, entries []manifestEntry) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\n", manifestHeader)
	fmt.Fprintf(&buf, "shard %d %d\n", shardIdx, shardN)
	for _, e := range entries {
		fmt.Fprintf(&buf, "segment %s %d %d %d %d %d %d\n",
			e.name, e.seq, e.first, e.last, e.size, e.indexOff, e.lastRef)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readManifest parses the manifest; a missing file is an empty store.
func readManifest(dir string) (shardIdx, shardN int, entries []manifestEntry, err error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil, nil
		}
		return 0, 0, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != manifestHeader {
		return 0, 0, nil, fmt.Errorf("provstore: %s: bad manifest header", dir)
	}
	if !sc.Scan() {
		return 0, 0, nil, fmt.Errorf("provstore: %s: manifest missing shard line", dir)
	}
	if _, err := fmt.Sscanf(sc.Text(), "shard %d %d", &shardIdx, &shardN); err != nil {
		return 0, 0, nil, fmt.Errorf("provstore: %s: bad shard line %q", dir, sc.Text())
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e manifestEntry
		if _, err := fmt.Sscanf(line, "segment %s %d %d %d %d %d %d",
			&e.name, &e.seq, &e.first, &e.last, &e.size, &e.indexOff, &e.lastRef); err != nil {
			return 0, 0, nil, fmt.Errorf("provstore: %s: bad manifest line %q", dir, line)
		}
		if len(entries) > 0 && e.seq <= entries[len(entries)-1].seq {
			return 0, 0, nil, fmt.Errorf("provstore: %s: manifest segments out of order at %s", dir, e.name)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, err
	}
	return shardIdx, shardN, entries, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms cannot fsync a directory handle; the rename is
	// still atomic there, just not immediately durable.
	_ = d.Sync()
	return nil
}

// sealedSegment is one immutable, fully indexed segment served from an
// mmap. All fields are set at open and never written again; lastRef
// lives in the store's manifest bookkeeping, not here.
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type sealedSegment struct {
	name     string
	seq      uint64
	first    uint64
	last     uint64
	size     int64
	indexOff int64
	data     []byte
	unmap    func() error
	hdr      *header

	blobs     *Trie // blob hash -> record offset
	versions  *Trie // big-endian version -> record offset
	firstSeen *Trie // addr \x00 vid -> first version in this segment
}

// openSealedSegment maps and validates one manifest row's segment.
func openSealedSegment(dir string, e manifestEntry) (*sealedSegment, error) {
	path := filepath.Join(dir, e.name)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() != e.size {
		return nil, fmt.Errorf("provstore: %s: size %d, manifest says %d", e.name, st.Size(), e.size)
	}
	data, unmap, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("provstore: map %s: %w", e.name, err)
	}
	s := &sealedSegment{
		name: e.name, seq: e.seq, first: e.first, last: e.last,
		size: e.size, indexOff: e.indexOff, data: data, unmap: unmap,
	}
	if err := s.parse(); err != nil {
		unmap()
		return nil, err
	}
	return s, nil
}

// parse validates the head and index record of a mapped segment.
func (s *sealedSegment) parse() error {
	hdr, _, err := readHead(s.data, s.name, s.seq)
	if err != nil {
		return err
	}
	s.hdr = hdr //lint:allow frozenwrite parse runs inside openSealed before the segment is shared
	typ, payload, next, err := readRecord(s.data, s.indexOff)
	if err != nil || typ != recIndex {
		return fmt.Errorf("provstore: %s: missing index record at %d", s.name, s.indexOff)
	}
	if next != s.size {
		return fmt.Errorf("provstore: %s: %d bytes after index record", s.name, s.size-next)
	}
	r := wire.NewReader(payload)
	//lint:allow frozenwrite parse runs inside openSealed before the segment is shared
	if s.blobs, err = UnmarshalTrie(&r); err != nil {
		return fmt.Errorf("provstore: %s: blob index: %w", s.name, err)
	}
	//lint:allow frozenwrite parse runs inside openSealed before the segment is shared
	if s.versions, err = UnmarshalTrie(&r); err != nil {
		return fmt.Errorf("provstore: %s: version index: %w", s.name, err)
	}
	//lint:allow frozenwrite parse runs inside openSealed before the segment is shared
	if s.firstSeen, err = UnmarshalTrie(&r); err != nil {
		return fmt.Errorf("provstore: %s: first-seen index: %w", s.name, err)
	}
	if err := r.Done("index"); err != nil {
		return fmt.Errorf("provstore: %s: %w", s.name, err)
	}
	return nil
}

// recordAt reads the record an index lookup found at off.
func (s *sealedSegment) recordAt(off int64, want byte) ([]byte, error) {
	typ, payload, _, err := readRecord(s.data, off)
	return typedRecord(s.name, off, want, typ, payload, err)
}

// typedRecord checks a record an index lookup found at off: it must be
// whole and of type want.
func typedRecord(name string, off int64, want, typ byte, payload []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("provstore: %s: corrupt record at %d", name, off)
	}
	if typ != want {
		return nil, fmt.Errorf("provstore: %s: index points at record type %q at %d, want %q", name, typ, off, want)
	}
	return payload, nil
}

// blob returns the payload of the content-addressed blob, if stored
// here.
func (s *sealedSegment) blob(h rel.ID) ([]byte, bool, error) {
	off, ok := s.blobs.Get(h[:])
	if !ok {
		return nil, false, nil
	}
	payload, err := s.recordAt(int64(off), recBlob)
	return payload, true, err
}

// version returns the decoded version record, if stored here.
func (s *sealedSegment) version(v uint64, nOwned int) (*versionRecord, bool, error) {
	off, ok := s.versions.Get(versionKey(v))
	if !ok {
		return nil, false, nil
	}
	payload, err := s.recordAt(int64(off), recVersion)
	if err != nil {
		return nil, true, err
	}
	vr, err := unmarshalVersionRecord(payload, nOwned)
	if err != nil {
		return nil, true, err
	}
	if vr.version != v {
		return nil, true, fmt.Errorf("provstore: %s: version index for %d found record %d", s.name, v, vr.version)
	}
	return vr, true, nil
}

func (s *sealedSegment) close() error {
	if s.unmap != nil {
		return s.unmap()
	}
	return nil
}

// readHead checks a segment's magic, its header record and that the
// header names segment seq, and returns the header and the offset of
// the first record after it. A segment that ends before its header
// record is whole fails with errTorn: recovery recreates such a tail,
// because the header is fsynced before any other record is written.
func readHead(data []byte, name string, seq uint64) (*header, int64, error) {
	if len(data) < len(segmentMagic) {
		return nil, 0, fmt.Errorf("provstore: %s: ends before its header: %w", name, errTorn)
	}
	if string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, 0, fmt.Errorf("provstore: %s: bad magic", name)
	}
	typ, payload, next, err := readRecord(data, int64(len(segmentMagic)))
	if err != nil {
		return nil, 0, fmt.Errorf("provstore: %s: ends before its header: %w", name, err)
	}
	if typ != recHeader {
		return nil, 0, fmt.Errorf("provstore: %s: missing header record", name)
	}
	hdr, err := unmarshalHeader(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("provstore: %s: %w", name, err)
	}
	if hdr.seq != seq {
		return nil, 0, fmt.Errorf("provstore: %s: header seq %d, expected %d", name, hdr.seq, seq)
	}
	return hdr, next, nil
}

// scanRecords is the one record loop. It reads the records of segment
// name from off, just past the header, into x, handing each version
// record to onVersion once x holds it and every blob before it. It
// stops at the end of data, at the first torn record, or after a seal
// record, and returns the offset it stopped at and the seal record's
// offset (-1 when there is none). A whole record that cannot belong —
// an unknown type, an undecodable version, a version that does not
// follow the one before it — is an error.
func scanRecords(name string, data []byte, off int64, owned []string, x *segIndex, onVersion func(*versionRecord)) (end, sealOff int64, err error) {
	for off < int64(len(data)) {
		typ, payload, next, err := readRecord(data, off)
		if err != nil {
			break
		}
		switch typ {
		case recBlob:
			x.blobOff[rel.HashBytes(payload)] = off
		case recVersion:
			vr, err := unmarshalVersionRecord(payload, len(owned))
			if err != nil {
				return off, -1, fmt.Errorf("provstore: %s: version record at %d: %w", name, off, err)
			}
			if x.last != 0 && vr.version != x.last+1 {
				return off, -1, fmt.Errorf("provstore: %s: version %d follows %d", name, vr.version, x.last)
			}
			x.noteVersion(vr, off, owned)
			onVersion(vr)
		case recIndex:
			return next, off, nil
		default:
			return off, -1, fmt.Errorf("provstore: %s: unknown record type %q at %d", name, typ, off)
		}
		off = next
	}
	return off, -1, nil
}

// segmentFiles sorts the segment files in dir that the manifest rows
// do not list. tail is the path of segment tailSeq, the one after the
// newest listed segment ("" when absent); strays are the others,
// leftovers of an interrupted retention delete that recovery removes.
// A segment numbered past the tail is an error: nothing says what it
// holds.
func segmentFiles(dir string, entries []manifestEntry) (tailSeq uint64, tail string, strays []string, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		return 0, "", nil, err
	}
	tailSeq = 1
	known := map[string]bool{}
	for _, e := range entries {
		known[e.name] = true
		tailSeq = e.seq + 1
	}
	tailName := segmentName(tailSeq)
	for _, path := range names {
		base := filepath.Base(path)
		if known[base] {
			continue
		}
		if base == tailName {
			tail = path
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(base, "seg-%d.seg", &seq); err == nil && seq > tailSeq {
			return 0, "", nil, fmt.Errorf("provstore: %s: segment %s beyond the recoverable tail %s", dir, base, tailName)
		}
		strays = append(strays, path)
	}
	return tailSeq, tail, strays, nil
}

// segIndex is a segment's index in memory: the offset of each blob and
// version record, the first version in the segment at which each
// firstSeenKey was seen, and the segment's version range. The active
// segment keeps one as it appends, a scan rebuilds one, and build
// renders one as the seal record's three tries.
type segIndex struct {
	blobOff     map[rel.ID]int64
	verOff      map[uint64]int64
	firstSeen   map[string]uint64
	first, last uint64
}

func newSegIndex() segIndex {
	return segIndex{blobOff: map[rel.ID]int64{}, verOff: map[uint64]int64{}, firstSeen: map[string]uint64{}}
}

// noteVersion indexes the version record at off.
func (x *segIndex) noteVersion(vr *versionRecord, off int64, owned []string) {
	x.verOff[vr.version] = off
	if x.first == 0 {
		x.first = vr.version
	}
	x.last = vr.version
	for i := range vr.states {
		se := &vr.states[i]
		for _, vid := range se.firstSeen {
			key := firstSeenKey(owned[se.ownedIdx], vid)
			if old, ok := x.firstSeen[key]; !ok || vr.version < old {
				x.firstSeen[key] = vr.version
			}
		}
	}
}

// build renders the index as the seal record's payload.
func (x *segIndex) build() ([]byte, error) {
	blobTrie, err := buildIDTrie(x.blobOff)
	if err != nil {
		return nil, err
	}
	verKeys := make([][]byte, 0, len(x.verOff))
	for v := range x.verOff {
		verKeys = append(verKeys, versionKey(v))
	}
	sortKeys(verKeys)
	verVals := make([]uint64, len(verKeys))
	for i, k := range verKeys {
		verVals[i] = uint64(x.verOff[versionOfKey(k)])
	}
	verTrie, err := BuildTrie(verKeys, verVals)
	if err != nil {
		return nil, err
	}
	fsKeys := make([][]byte, 0, len(x.firstSeen))
	for k := range x.firstSeen {
		fsKeys = append(fsKeys, []byte(k))
	}
	sortKeys(fsKeys)
	fsVals := make([]uint64, len(fsKeys))
	for i, k := range fsKeys {
		fsVals[i] = x.firstSeen[string(k)]
	}
	fsTrie, err := BuildTrie(fsKeys, fsVals)
	if err != nil {
		return nil, err
	}
	return fsTrie.Marshal(verTrie.Marshal(blobTrie.Marshal(nil))), nil
}

// activeSegment is the append tail: an open file plus the in-memory
// index that the tries hold for a sealed segment. Recovery rebuilds the
// index by scanning, which is why it needs no durability of its own.
type activeSegment struct {
	f    *os.File
	name string
	seq  uint64
	hdr  *header
	// size is the committed length: every byte below it is a complete,
	// CRC-valid record. Readers may ReadAt below size concurrently with
	// appends at size.
	size int64
	segIndex
}

// createActiveSegment starts segment seq with a header record carrying
// ident's deployment identity.
func createActiveSegment(dir string, seq uint64, ident *header) (*activeSegment, error) {
	hdr := *ident
	hdr.seq = seq
	name := segmentName(seq)
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	buf := append([]byte(segmentMagic), appendRecord(nil, recHeader, hdr.marshal())...)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &activeSegment{f: f, name: name, seq: seq, hdr: &hdr, size: int64(len(buf)), segIndex: newSegIndex()}, nil
}

// write appends pre-framed record bytes at the committed tail. The
// caller advances bookkeeping (size, maps) only after success, so a
// short write leaves a torn tail for recovery to truncate.
func (a *activeSegment) write(b []byte) error {
	if _, err := a.f.WriteAt(b, a.size); err != nil {
		return err
	}
	a.size += int64(len(b))
	return nil
}

// recordAt reads the committed record an index lookup found at off.
func (a *activeSegment) recordAt(off int64, want byte) ([]byte, error) {
	if off < 0 || off >= a.size {
		return nil, fmt.Errorf("provstore: %s: record offset %d out of range", a.name, off)
	}
	buf := make([]byte, a.size-off)
	if _, err := a.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	typ, payload, _, err := readRecord(buf, 0)
	return typedRecord(a.name, off, want, typ, payload, err)
}

func buildIDTrie(m map[rel.ID]int64) (*Trie, error) {
	keys := make([][]byte, 0, len(m))
	for h := range m {
		h := h
		keys = append(keys, h[:])
	}
	sortKeys(keys)
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		var id rel.ID
		copy(id[:], k)
		vals[i] = uint64(m[id])
	}
	return BuildTrie(keys, vals)
}

func sortKeys(keys [][]byte) {
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
}

func versionOfKey(k []byte) uint64 {
	var v uint64
	for _, b := range k {
		v = v<<8 | uint64(b)
	}
	return v
}
