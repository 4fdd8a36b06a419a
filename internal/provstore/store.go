package provstore

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// Defaults for Options; see the field docs.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultSealVersions = 1024
)

// ErrNotRetained reports a version (or a blob one depends on) that
// retention has deleted or that was never stored. The serving layer
// maps it to the snapshot_evicted API error.
var ErrNotRetained = errors.New("provstore: version not retained")

// ShardInfo names the deployment slice a store belongs to, mirroring
// the server's shard spec without importing it (the server imports us).
type ShardInfo struct {
	Index int
	Total int
}

// Options configures a store. AllNodes and Owned pin the deployment
// identity: a store refuses to reopen under a different node set or
// shard, because version records address nodes by owned index.
type Options struct {
	AllNodes []string
	Owned    []string
	Shard    ShardInfo

	// SegmentBytes seals the active segment once it grows past this
	// size; SealVersions seals it once it holds this many versions
	// (whichever comes first). Defaults: 4 MiB / 1024.
	SegmentBytes int64
	SealVersions int

	// SyncEvery fsyncs the active segment every N appends (default 1:
	// every version is durable before Append returns). Larger values
	// trade the fsync cost against versions at risk in a crash — the
	// torn tail is truncated, never corrupted, either way.
	SyncEvery int

	// Retain bounds history: once the newest version passes it,
	// whole segments whose versions (and whose blobs' referencing
	// records) have all aged out of the newest Retain versions are
	// deleted. 0 keeps everything.
	Retain int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SealVersions <= 0 {
		o.SealVersions = DefaultSealVersions
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	return o
}

// NodeState is one dirty node's freshly published state.
type NodeState struct {
	OwnedIdx int
	Info     Info
	Tables   map[string]*rel.Frozen
	View     *provenance.View
}

// InfoUpdate refreshes a carried node's traffic counters.
type InfoUpdate struct {
	OwnedIdx int
	Info     Info
}

// VersionInput is one published version as the Publisher tees it:
// state entries for the nodes whose state changed (ascending owned
// index), info updates for nodes whose counters moved without state.
type VersionInput struct {
	Version uint64
	Time    int64
	States  []NodeState
	Infos   []InfoUpdate
}

// NodeData is one owned node's materialized historical state.
type NodeData struct {
	Addr   string
	Tables map[string]*rel.Frozen
	View   *provenance.View
	// Info is the node's effective metadata at the materialized
	// version (traffic counters included); StateTime is the virtual time
	// of the version that last changed the node's state.
	Info      Info
	StateTime int64
}

// VersionData is one fully materialized historical version.
type VersionData struct {
	Version uint64
	Time    int64
	Nodes   []NodeData // parallel to Options.Owned
}

// containerKey names one container a state entry references — a
// frozen-table chunk run or a view bucket — by its first element's
// address and its length. Neither is written once frozen, and the key
// holds the pointer, so while a key sits in a memo its array stays
// alive, its address is not reused, and an equal key means equal bytes.
type containerKey struct {
	first any
	n     int
}

// blobLoc names a stored blob: its hash and the sequence number of the
// segment that holds it.
type blobLoc struct {
	hash rel.ID
	seq  uint64
}

// nodeLast is what the store last recorded for one owned node: each
// table's frozen set (the delta base for first-seen detection) and the
// memo from every container of that state entry to its blob, so an
// untouched container costs Append one map probe — no encode, no hash,
// no index walk. Append fills the next* pair and swaps it in only once
// the version's write lands; clearing and swapping lets a steady state
// allocate nothing. After a restart both start empty, which only
// over-approximates first-seen (FirstVersion takes the earliest
// segment's answer, so earlier truth still wins).
type nodeLast struct {
	tables, nextTables map[string]*rel.Frozen
	memo, nextMemo     map[containerKey]blobLoc
}

// begin empties the next pair for a fresh state entry.
func (nl *nodeLast) begin() {
	if nl.nextMemo == nil {
		nl.nextTables = map[string]*rel.Frozen{}
		nl.nextMemo = map[containerKey]blobLoc{}
	}
	clear(nl.nextTables)
	clear(nl.nextMemo)
}

// commit makes the pair begin emptied, now filled, the node's last
// state entry.
func (nl *nodeLast) commit() {
	nl.tables, nl.nextTables = nl.nextTables, nl.tables
	nl.memo, nl.nextMemo = nl.nextMemo, nl.memo
}

// appendScratch is Append's working memory, kept between versions so a
// steady state reuses it: rec is the version record being built, enc
// one container or record encoding, file the version's framed records,
// staged the offsets of the blobs file holds.
type appendScratch struct {
	rec     versionRecord
	enc     []byte
	file    []byte
	staged  map[rel.ID]int64
	refSeqs map[uint64]bool
	names   []string
}

// maxKeptScratch caps what appendScratch keeps: after a version whose
// records passed this size (typically the full first one) the buffers
// and the staged map start over, so they neither pin its memory nor
// make every later clear pay for its capacity.
const maxKeptScratch = 1 << 20

// extend grows s by one element and returns it. The element keeps what
// an earlier version left there, so the slices it holds are reused; the
// caller resets every field.
func extend[T any](s []T) ([]T, *T) {
	s = slices.Grow(s, 1)[:len(s)+1]
	return s, &s[len(s)-1]
}

// Store is a log-structured, append-only snapshot store. Appends run
// on the simulation thread (the Publisher's epoch observer);
// materializations run on HTTP goroutines. A single RWMutex covers the
// segment list and the active segment's in-memory index; the version
// counters are atomics so the serving tier can consult them lock-free.
type Store struct {
	dir  string
	opts Options
	// ident is the deployment identity (a header without a sequence
	// number) every segment of the store carries.
	ident *header

	mu       sync.RWMutex
	sealed   []*sealedSegment
	lastRefs map[uint64]uint64 // sealed seq -> newest referencing version
	active   *activeSegment

	// stateVers/infoVers are the current resolution vectors (per owned
	// node, the version whose record holds its state/info entry);
	// every Append persists the updated vectors in the version record.
	stateVers []uint64
	infoVers  []uint64
	last      []nodeLast
	// loc locates blobs: hash -> sequence number of the segment holding
	// it. Every blob Append writes and every blob Open or Append looks
	// up enters it, and retention drops a deleted segment's entries, so
	// the sealed tries are walked only for a hash unseen since Open.
	// Materialize reads it under the read lock and never fills it.
	loc      map[rel.ID]uint64
	scratch  appendScratch
	unsynced int
	closed   bool

	lastVersion    atomic.Uint64
	oldestVersion  atomic.Uint64
	durableVersion atomic.Uint64
}

// Open opens (or initializes) the store at dir and recovers it to a
// consistent state: sealed segments are mapped and their indexes
// validated, and the active segment — the only place a torn tail can
// exist — is scanned record by record and truncated after the last
// CRC-valid record.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if len(opts.Owned) == 0 {
		return nil, errors.New("provstore: options name no owned nodes")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shardIdx, shardN, entries, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) > 0 || shardN != 0 || shardIdx != 0 {
		if shardIdx != opts.Shard.Index || shardN != opts.Shard.Total {
			return nil, fmt.Errorf("provstore: %s belongs to shard %d/%d, not %d/%d",
				dir, shardIdx, shardN, opts.Shard.Index, opts.Shard.Total)
		}
	}
	s := &Store{dir: dir, opts: opts, lastRefs: map[uint64]uint64{}, loc: map[rel.ID]uint64{}}
	s.stateVers = make([]uint64, len(opts.Owned))
	s.infoVers = make([]uint64, len(opts.Owned))
	s.last = make([]nodeLast, len(opts.Owned))
	s.scratch.staged = map[rel.ID]int64{}
	s.scratch.refSeqs = map[uint64]bool{}
	s.ident = &header{
		format:   formatVersion,
		shardIdx: opts.Shard.Index,
		shardN:   opts.Shard.Total,
		allNodes: opts.AllNodes,
		owned:    opts.Owned,
	}
	fail := func(err error) (*Store, error) {
		s.closeSegmentsLocked()
		return nil, err
	}
	for _, e := range entries {
		seg, err := openSealedSegment(dir, e)
		if err != nil {
			return fail(err)
		}
		if err := seg.hdr.mismatch(s.ident, seg.name); err != nil {
			seg.close()
			return fail(err)
		}
		s.sealed = append(s.sealed, seg)
		s.lastRefs[seg.seq] = e.lastRef
	}
	if err := s.recoverActive(entries); err != nil {
		return fail(err)
	}
	// Resolution vectors: the newest version record holds them.
	if last := s.newestVersionLocked(); last > 0 {
		vr, err := s.findVersionLocked(last)
		if err != nil {
			return fail(fmt.Errorf("provstore: recover resolution vectors: %w", err))
		}
		copy(s.stateVers, vr.stateVers)
		copy(s.infoVers, vr.infoVers)
		s.lastVersion.Store(last)
		s.durableVersion.Store(last)
	}
	if len(s.sealed) > 0 {
		s.oldestVersion.Store(s.sealed[0].first)
	} else if s.active.first > 0 {
		s.oldestVersion.Store(s.active.first)
	}
	return s, nil
}

// recoverActive recovers the tail segment, the one after the newest
// sealed segment, or creates it when there is none. Segment files the
// manifest does not list and the tail sequence does not claim are
// leftovers of an interrupted retention delete and are removed.
func (s *Store) recoverActive(entries []manifestEntry) error {
	seq, tail, strays, err := segmentFiles(s.dir, entries)
	if err != nil {
		return err
	}
	for _, path := range strays {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	if tail != "" {
		if seq, err = s.scanTail(tail, seq); err != nil || s.active != nil {
			return err
		}
	}
	s.active, err = createActiveSegment(s.dir, seq, s.ident)
	return err
}

// scanTail recovers tail segment seq at path. It reopens the tail as
// the active segment, truncated after its last whole record, or returns
// the sequence number of the active segment to create instead: seq when
// the tail ends before its header (which is removed, since it never
// held data), or seq+1 when the tail ends in a seal record, because
// the crash hit between the seal's fsync and the manifest write: the
// tail is adopted as sealed, with anything after the seal truncated.
// Tail versions re-bump the lastRef of each sealed segment whose blobs
// they reference; the bumps were only in memory when the process died.
func (s *Store) scanTail(path string, seq uint64) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	name := filepath.Base(path)
	hdr, off, err := readHead(data, name, seq)
	if errors.Is(err, errTorn) {
		return seq, os.Remove(path)
	}
	if err == nil {
		err = hdr.mismatch(s.ident, name)
	}
	if err != nil {
		return 0, err
	}
	a := &activeSegment{name: name, seq: seq, hdr: hdr, segIndex: newSegIndex()}
	end, sealOff, err := scanRecords(name, data, off, hdr.owned, &a.segIndex, func(vr *versionRecord) {
		vr.eachBlob(func(h rel.ID) {
			if _, ok := a.blobOff[h]; ok {
				return
			}
			if seq, ok := s.locate(h); ok && s.lastRefs[seq] < vr.version {
				s.lastRefs[seq] = vr.version
			}
		})
	})
	if err != nil {
		return 0, err
	}
	for h := range a.blobOff {
		s.loc[h] = seq
	}
	if sealOff >= 0 {
		if err := os.Truncate(path, end); err != nil {
			return 0, err
		}
		entry := manifestEntry{
			name: name, seq: seq, first: a.first, last: a.last,
			size: end, indexOff: sealOff, lastRef: a.last,
		}
		seg, err := openSealedSegment(s.dir, entry)
		if err != nil {
			return 0, err
		}
		s.sealed = append(s.sealed, seg)
		s.lastRefs[seq] = entry.lastRef
		return seq + 1, s.writeManifestLocked()
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	a.f, a.size = f, end
	s.active = a
	return 0, nil
}

// newestVersionLocked returns the newest stored version, 0 when empty.
func (s *Store) newestVersionLocked() uint64 {
	if s.active != nil && s.active.last > 0 {
		return s.active.last
	}
	if n := len(s.sealed); n > 0 {
		return s.sealed[n-1].last
	}
	return 0
}

// LastVersion returns the newest appended version (0 when empty). The
// Publisher resumes minting at LastVersion()+1 after a restart.
func (s *Store) LastVersion() uint64 { return s.lastVersion.Load() }

// OldestVersion returns the oldest version still materializable, 0
// when the store is empty.
func (s *Store) OldestVersion() uint64 { return s.oldestVersion.Load() }

// DurableVersion returns the newest version guaranteed to survive a
// crash (fsynced or sealed).
func (s *Store) DurableVersion() uint64 { return s.durableVersion.Load() }

// Owned returns the owned node addresses, in record index order.
func (s *Store) Owned() []string { return s.opts.Owned }

// Sync forces the active segment to disk, advancing DurableVersion.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("provstore: store closed")
	}
	return s.syncActiveLocked()
}

func (s *Store) syncActiveLocked() error {
	if s.active == nil {
		return nil
	}
	if err := s.active.f.Sync(); err != nil {
		return err
	}
	s.unsynced = 0
	s.durableVersion.Store(s.lastVersion.Load())
	return nil
}

// Close syncs and releases the store. The active segment stays
// unsealed on disk; the next Open recovers it by scanning.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncActiveLocked()
	s.closed = true
	s.closeSegmentsLocked()
	return err
}

func (s *Store) closeSegmentsLocked() {
	for _, seg := range s.sealed {
		seg.close()
	}
	s.sealed = nil
	if s.active != nil && s.active.f != nil {
		s.active.f.Close()
	}
	s.active = nil
}

// Append tees one published version into the log. Versions must arrive
// densely; a version at or below LastVersion is a deterministic replay
// of history the store already holds and is skipped idempotently.
// Append runs on the publishing thread — it is not safe for concurrent
// use with itself, only with readers.
func (s *Store) Append(in VersionInput) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("provstore: store closed")
	}
	if s.active == nil {
		return errors.New("provstore: store has no active segment (a previous seal failed)")
	}
	last := s.lastVersion.Load()
	if in.Version <= last {
		return nil
	}
	if in.Version != last+1 && last != 0 {
		return fmt.Errorf("provstore: version %d leaves a gap after %d", in.Version, last)
	}
	if in.Time < 0 {
		return fmt.Errorf("provstore: version %d has negative time %d", in.Version, in.Time)
	}

	// Stage all record bytes first; bookkeeping commits only after the
	// file write succeeds, so a failed append leaves a truncatable
	// tail, never a half-indexed store.
	sc := &s.scratch
	sc.file = sc.file[:0]
	clear(sc.staged)
	clear(sc.refSeqs)
	vr := &sc.rec
	vr.version, vr.time = in.Version, in.Time
	vr.stateVers = append(vr.stateVers[:0], s.stateVers...)
	vr.infoVers = append(vr.infoVers[:0], s.infoVers...)
	vr.states, vr.infos = vr.states[:0], vr.infos[:0]
	prevIdx := -1
	for _, ns := range in.States {
		if ns.OwnedIdx <= prevIdx || ns.OwnedIdx >= len(s.opts.Owned) {
			return fmt.Errorf("provstore: version %d: bad state owned index %d", in.Version, ns.OwnedIdx)
		}
		prevIdx = ns.OwnedIdx
		var se *stateEntry
		vr.states, se = extend(vr.states)
		se.ownedIdx, se.info = ns.OwnedIdx, ns.Info
		se.tables, se.firstSeen = se.tables[:0], se.firstSeen[:0]
		nl := &s.last[ns.OwnedIdx]
		nl.begin()
		sc.names = sc.names[:0]
		for name := range ns.Tables {
			sc.names = append(sc.names, name)
		}
		slices.Sort(sc.names)
		for _, name := range sc.names {
			f, prev := ns.Tables[name], nl.tables[name]
			var te *tableEntry
			se.tables, te = extend(se.tables)
			te.name, te.version, te.chunks = name, f.Version(), te.chunks[:0]
			f.Runs(func(run []*rel.Tuple) {
				h, fresh := s.ref(nl, containerKey{&run[0], len(run)},
					func(b []byte) []byte { return appendChunkBlob(b, run) })
				te.chunks = append(te.chunks, h)
				if fresh {
					// A chunk the node's last state entry did not hold:
					// its tuples absent from the previous frozen set are
					// first seen at this version.
					prev.EachAbsent(run, func(t rel.Tuple) {
						se.firstSeen = append(se.firstSeen, t.VID())
					})
				}
			})
			nl.nextTables[name] = f
		}
		se.view.version = ns.View.Version()
		spines := [...]*[]blobRef{
			provenance.SpineProv: &se.view.prov,
			provenance.SpineExec: &se.view.exec,
			provenance.SpinePins: &se.view.pins,
		}
		for spine, refs := range spines {
			n := ns.View.SpineLen(spine)
			*refs = slices.Grow((*refs)[:0], n)[:n]
			clear(*refs)
		}
		ns.View.EachBucket(func(b provenance.Bucket) {
			first, n := b.Key()
			h, _ := s.ref(nl, containerKey{first, n}, b.AppendTo)
			(*spines[b.Spine])[b.Index] = blobRef{present: true, hash: h}
		})
		vr.stateVers[ns.OwnedIdx] = in.Version
		vr.infoVers[ns.OwnedIdx] = in.Version
	}
	prevIdx = -1
	for _, iu := range in.Infos {
		if iu.OwnedIdx <= prevIdx || iu.OwnedIdx >= len(s.opts.Owned) {
			return fmt.Errorf("provstore: version %d: bad info owned index %d", in.Version, iu.OwnedIdx)
		}
		prevIdx = iu.OwnedIdx
		if vr.stateVers[iu.OwnedIdx] == in.Version {
			return fmt.Errorf("provstore: version %d: node %d has both state and info entries", in.Version, iu.OwnedIdx)
		}
		vr.infos = append(vr.infos, infoEntry{ownedIdx: iu.OwnedIdx, info: iu.Info})
		vr.infoVers[iu.OwnedIdx] = in.Version
	}
	vr.minState = in.Version
	for _, sv := range vr.stateVers {
		if sv == 0 {
			return fmt.Errorf("provstore: version %d published before every owned node has state", in.Version)
		}
		if sv < vr.minState {
			vr.minState = sv
		}
	}

	vrOff := s.active.size + int64(len(sc.file))
	sc.enc = vr.appendTo(sc.enc[:0])
	sc.file = appendRecord(sc.file, recVersion, sc.enc)
	if err := s.active.write(sc.file); err != nil {
		return fmt.Errorf("provstore: append version %d: %w", in.Version, err)
	}

	for h, off := range sc.staged {
		s.active.blobOff[h] = off
		s.loc[h] = s.active.seq
	}
	s.active.noteVersion(vr, vrOff, s.opts.Owned)
	for seq := range sc.refSeqs {
		if s.lastRefs[seq] < in.Version {
			s.lastRefs[seq] = in.Version
		}
	}
	copy(s.stateVers, vr.stateVers)
	copy(s.infoVers, vr.infoVers)
	for i := range vr.states {
		s.last[vr.states[i].ownedIdx].commit()
	}
	if cap(sc.file) > maxKeptScratch {
		sc.file, sc.enc, sc.staged = nil, nil, map[rel.ID]int64{}
	}
	s.lastVersion.Store(in.Version)
	if s.oldestVersion.Load() == 0 {
		s.oldestVersion.Store(in.Version)
	}
	s.unsynced++
	if s.unsynced >= s.opts.SyncEvery {
		if err := s.syncActiveLocked(); err != nil {
			return err
		}
	}
	if s.active.size >= s.opts.SegmentBytes || len(s.active.verOff) >= s.opts.SealVersions {
		if err := s.sealLocked(); err != nil {
			return fmt.Errorf("provstore: seal %s: %w", s.active.name, err)
		}
	}
	return nil
}

// ref resolves one container of node nl's state entry to its blob hash
// and enters it in the node's next memo. A container the memo holds
// costs one probe. Any other (fresh) one is encoded into the scratch
// buffer and hashed, and its blob is staged unless the store already
// holds it. A blob in a sealed segment marks that segment referenced.
func (s *Store) ref(nl *nodeLast, key containerKey, encode func([]byte) []byte) (h rel.ID, fresh bool) {
	loc, hit := nl.memo[key]
	if !hit {
		sc := &s.scratch
		sc.enc = encode(sc.enc[:0])
		loc = blobLoc{hash: rel.HashBytes(sc.enc), seq: s.active.seq}
		if _, ok := sc.staged[loc.hash]; !ok {
			if seq, ok := s.locate(loc.hash); ok {
				loc.seq = seq
			} else {
				sc.staged[loc.hash] = s.active.size + int64(len(sc.file))
				sc.file = appendRecord(sc.file, recBlob, sc.enc)
			}
		}
	}
	if loc.seq != s.active.seq {
		s.scratch.refSeqs[loc.seq] = true
	}
	nl.nextMemo[key] = loc
	return loc.hash, !hit
}

// locate names the segment holding blob h: the locator's answer, or —
// for a hash it has not seen since Open — the newest sealed segment
// whose trie holds it, which the locator then remembers. Callers hold
// the write lock (or run inside Open).
func (s *Store) locate(h rel.ID) (uint64, bool) {
	if seq, ok := s.loc[h]; ok {
		return seq, true
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		if _, ok := s.sealed[i].blobs.Get(h[:]); ok {
			s.loc[h] = s.sealed[i].seq
			return s.sealed[i].seq, true
		}
	}
	return 0, false
}

// sealLocked freezes the active segment: index record, fsync, manifest
// update (which also persists every pending lastRef bump), retention,
// and a fresh active segment.
func (s *Store) sealLocked() error {
	a := s.active
	if len(a.verOff) == 0 {
		return nil
	}
	idx, err := a.build()
	if err != nil {
		return err
	}
	indexOff := a.size
	if err := a.write(appendRecord(nil, recIndex, idx)); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	if err := a.f.Close(); err != nil {
		return err
	}
	// Every record of the old active now lives in the sealed segment;
	// clear the active slot so lookups during retention do not touch
	// the closed file. A fresh active is created below.
	s.active = nil
	entry := manifestEntry{
		name: a.name, seq: a.seq, first: a.first, last: a.last,
		size: a.size, indexOff: indexOff, lastRef: a.last,
	}
	seg, err := openSealedSegment(s.dir, entry)
	if err != nil {
		return err
	}
	s.sealed = append(s.sealed, seg)
	s.lastRefs[seg.seq] = entry.lastRef
	s.unsynced = 0
	s.durableVersion.Store(s.lastVersion.Load())
	removed := s.retentionLocked()
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	for _, name := range removed {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s.active, err = createActiveSegment(s.dir, seg.seq+1, a.hdr)
	return err
}

// retentionLocked drops whole sealed segments whose every version and
// every referenced blob has aged out of the retention window,
// oldest-first, stopping at the first segment still needed. A segment
// is still needed while any record at or after minNeeded — the oldest
// record any retained version resolves through — lives in it or
// references a blob in it.
func (s *Store) retentionLocked() (removedFiles []string) {
	if s.opts.Retain <= 0 {
		return nil
	}
	newest := s.lastVersion.Load()
	if newest <= uint64(s.opts.Retain) {
		return nil
	}
	oldestKept := newest - uint64(s.opts.Retain) + 1
	if ov := s.oldestVersion.Load(); oldestKept < ov {
		oldestKept = ov
	}
	vr, err := s.findVersionLocked(oldestKept)
	if err != nil {
		return nil // stay conservative: delete nothing we cannot prove safe
	}
	minNeeded := vr.minState
	if oldestKept < minNeeded {
		minNeeded = oldestKept
	}
	for len(s.sealed) > 1 {
		seg := s.sealed[0]
		if seg.last >= minNeeded || s.lastRefs[seg.seq] >= minNeeded {
			break
		}
		removedFiles = append(removedFiles, seg.name)
		seg.close()
		delete(s.lastRefs, seg.seq)
		s.sealed = s.sealed[1:]
	}
	if len(removedFiles) > 0 {
		// No locator or memo entry may outlive its blob's segment.
		kept := s.sealed[0].seq
		maps.DeleteFunc(s.loc, func(_ rel.ID, seq uint64) bool { return seq < kept })
		for i := range s.last {
			maps.DeleteFunc(s.last[i].memo, func(_ containerKey, l blobLoc) bool { return l.seq < kept })
		}
		if len(s.sealed) > 0 {
			s.oldestVersion.Store(s.sealed[0].first)
		} else if s.active != nil && s.active.first > 0 {
			s.oldestVersion.Store(s.active.first)
		}
	}
	return removedFiles
}

func (s *Store) writeManifestLocked() error {
	entries := make([]manifestEntry, len(s.sealed))
	for i, seg := range s.sealed {
		entries[i] = manifestEntry{
			name: seg.name, seq: seg.seq, first: seg.first, last: seg.last,
			size: seg.size, indexOff: seg.indexOff, lastRef: s.lastRefs[seg.seq],
		}
	}
	return writeManifest(s.dir, s.opts.Shard.Index, s.opts.Shard.Total, entries)
}

// findVersionLocked locates and decodes one version record.
func (s *Store) findVersionLocked(v uint64) (*versionRecord, error) {
	if v == 0 {
		return nil, ErrNotRetained
	}
	if s.active != nil {
		if off, ok := s.active.verOff[v]; ok {
			payload, err := s.active.recordAt(off, recVersion)
			if err != nil {
				return nil, err
			}
			return unmarshalVersionRecord(payload, len(s.opts.Owned))
		}
	}
	for i := len(s.sealed) - 1; i >= 0; i-- {
		seg := s.sealed[i]
		if v < seg.first || v > seg.last {
			continue
		}
		vr, found, err := seg.version(v, len(s.opts.Owned))
		if err != nil {
			return nil, err
		}
		if found {
			return vr, nil
		}
	}
	return nil, fmt.Errorf("version %d: %w", v, ErrNotRetained)
}

// blobLocked fetches one content-addressed blob, walking only the
// segment the locator names when it knows the hash.
func (s *Store) blobLocked(h rel.ID) ([]byte, error) {
	if s.active != nil {
		if off, ok := s.active.blobOff[h]; ok {
			return s.active.recordAt(off, recBlob)
		}
	}
	seq, known := s.loc[h]
	for i := len(s.sealed) - 1; i >= 0; i-- {
		if known && s.sealed[i].seq != seq {
			continue
		}
		payload, found, err := s.sealed[i].blob(h)
		if err != nil {
			return nil, err
		}
		if found {
			return payload, nil
		}
	}
	return nil, fmt.Errorf("blob %s: %w", h.Short(), ErrNotRetained)
}

// Materialize reconstructs the full owned partition at a historical
// version: every node's frozen tables, provenance view, and published
// metadata, bit-for-bit equivalent to what the Publisher teed in.
// Versions below OldestVersion (or never published) fail with
// ErrNotRetained.
func (s *Store) Materialize(version uint64) (*VersionData, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errors.New("provstore: store closed")
	}
	recs := map[uint64]*versionRecord{}
	get := func(v uint64) (*versionRecord, error) {
		if vr, ok := recs[v]; ok {
			return vr, nil
		}
		vr, err := s.findVersionLocked(v)
		if err != nil {
			return nil, err
		}
		recs[v] = vr
		return vr, nil
	}
	vr, err := get(version)
	if err != nil {
		return nil, err
	}
	vd := &VersionData{Version: version, Time: vr.time, Nodes: make([]NodeData, len(s.opts.Owned))}
	for i, addr := range s.opts.Owned {
		srec, err := get(vr.stateVers[i])
		if err != nil {
			return nil, err
		}
		se, ok := srec.stateFor(i)
		if !ok {
			return nil, fmt.Errorf("provstore: version %d resolves node %s to %d, which has no state entry",
				version, addr, vr.stateVers[i])
		}
		tables := make(map[string]*rel.Frozen, len(se.tables))
		for _, te := range se.tables {
			runs := make([][]rel.Tuple, len(te.chunks))
			for ci, h := range te.chunks {
				blob, err := s.blobLocked(h)
				if err != nil {
					return nil, err
				}
				if runs[ci], err = decodeChunkBlob(blob); err != nil {
					return nil, err
				}
			}
			f, err := rel.RebuildFrozen(te.version, runs)
			if err != nil {
				return nil, err
			}
			tables[te.name] = f
		}
		spines := make([][][]byte, 3)
		for si, refs := range [][]blobRef{se.view.prov, se.view.exec, se.view.pins} {
			bufs := make([][]byte, len(refs))
			for bi, ref := range refs {
				if !ref.present {
					continue
				}
				if bufs[bi], err = s.blobLocked(ref.hash); err != nil {
					return nil, err
				}
			}
			spines[si] = bufs
		}
		view, err := provenance.RebuildView(addr, se.view.version, spines[0], spines[1], spines[2])
		if err != nil {
			return nil, err
		}
		irec, err := get(vr.infoVers[i])
		if err != nil {
			return nil, err
		}
		info, ok := irec.infoFor(i)
		if !ok {
			return nil, fmt.Errorf("provstore: version %d resolves node %s info to %d, which has no entry",
				version, addr, vr.infoVers[i])
		}
		vd.Nodes[i] = NodeData{
			Addr: addr, Tables: tables, View: view,
			Info: info, StateTime: srec.time,
		}
	}
	return vd, nil
}

// VersionTime returns the virtual time a version was published at.
func (s *Store) VersionTime(version uint64) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, errors.New("provstore: store closed")
	}
	vr, err := s.findVersionLocked(version)
	if err != nil {
		return 0, err
	}
	return vr.time, nil
}

// FirstVersion answers the deep-history query class: the earliest
// retained version at which the tuple with content hash vid was
// visible at addr. Segments are probed oldest-first so the earliest
// recorded sighting wins; when history before OldestVersion has been
// retention-deleted, the answer is a (documented) upper bound.
func (s *Store) FirstVersion(addr string, vid rel.ID) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, false
	}
	key := firstSeenKey(addr, vid)
	kb := []byte(key)
	for _, seg := range s.sealed {
		if v, ok := seg.firstSeen.Get(kb); ok {
			return v, true
		}
	}
	if s.active != nil {
		if v, ok := s.active.firstSeen[key]; ok {
			return v, true
		}
	}
	return 0, false
}
