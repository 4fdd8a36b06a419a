package provstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/rel"
)

// Report is the outcome of an offline store check. Problems holds one
// line per integrity violation; a store with an empty Problems list is
// safe to open and serves every version in [FirstVersion, LastVersion].
type Report struct {
	SealedSegments int
	ActiveSegments int
	Records        int
	Blobs          int
	// OrphanBlobs counts stored blobs no retained version record
	// references. Orphans are wasted space, not corruption: retention
	// deletes whole segments, so a blob can outlive its last referent.
	OrphanBlobs int
	// TornTailBytes is the length of the incomplete record tail of the
	// active segment — the bytes recovery would truncate.
	TornTailBytes int64
	FirstVersion  uint64
	LastVersion   uint64
	Problems      []string
}

// Ok reports whether the check found no integrity violations.
func (r *Report) Ok() bool { return len(r.Problems) == 0 }

func (r *Report) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// fsckState accumulates cross-segment facts while segments are
// scanned oldest-first.
type fsckState struct {
	rep     *Report
	w       io.Writer
	verbose bool

	// shard is the manifest's shard (nil without a manifest) and ident
	// the identity every segment must carry: the first segment's node
	// set under that shard.
	shard *ShardInfo
	ident *header
	blobs map[rel.ID]bool // stored blob -> referenced by a version record
	// lastVer is the newest version seen so far (0 before the first),
	// lastSV/lastIV the stateVers/infoVers of its record.
	lastVer        uint64
	lastSV, lastIV []uint64
}

func (fs *fsckState) logf(format string, args ...any) {
	if fs.verbose && fs.w != nil {
		fmt.Fprintf(fs.w, format+"\n", args...)
	}
}

// Fsck verifies the provstore at dir without opening it for writing.
// It reads every segment with the code recovery reads the tail with,
// so a store it passes is one Open opens; beyond what Open checks, it
// rebuilds each seal record's index from the records and compares the
// bytes, checks each sealed segment against its manifest row, and
// follows the dense version chain with its resolution-vector
// invariants and the blobs each version references. Progress and
// per-segment detail go to w when verbose. Every violation, an
// unreadable segment file included, lands in Report.Problems; the
// error result is reserved for failures of the check itself.
func Fsck(dir string, w io.Writer, verbose bool) (*Report, error) {
	rep := &Report{}
	fs := &fsckState{rep: rep, w: w, verbose: verbose, blobs: map[rel.ID]bool{}}
	shardIdx, shardN, entries, err := readManifest(dir)
	if err != nil {
		rep.problemf("manifest: %v", err)
		return rep, nil
	}
	fs.logf("manifest: shard %d/%d, %d sealed segments", shardIdx, shardN, len(entries))
	if len(entries) > 0 || shardN != 0 || shardIdx != 0 {
		fs.shard = &ShardInfo{Index: shardIdx, Total: shardN}
	}
	for i := range entries {
		fs.checkSegment(dir, entries[i].name, entries[i].seq, &entries[i])
	}
	seq, tail, strays, err := segmentFiles(dir, entries)
	if err != nil {
		rep.problemf("%v", err)
	}
	for _, path := range strays {
		fs.logf("%s: not in manifest and not the tail (crash debris)", filepath.Base(path))
	}
	if tail != "" {
		fs.checkSegment(dir, filepath.Base(tail), seq, nil)
	}
	for _, used := range fs.blobs {
		if !used {
			rep.OrphanBlobs++
		}
	}
	rep.LastVersion = fs.lastVer
	return rep, nil
}

// checkSegment reads segment seq as recovery does: head, identity, and
// every record. e is its manifest row, nil for the tail. Of a sealed
// segment it checks that the scan ends in the seal record the row
// names and finds the row's version range; of the tail it measures the
// bytes recovery would truncate. A seal record's index must be the
// bytes that rebuilding it from the scanned records gives.
func (fs *fsckState) checkSegment(dir, name string, seq uint64, e *manifestEntry) {
	rep := fs.rep
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		rep.problemf("%s: %v", name, err)
		return
	}
	if e != nil {
		rep.SealedSegments++
		fs.logf("%s: versions %d-%d, %d bytes", name, e.first, e.last, e.size)
	} else {
		rep.ActiveSegments++
	}
	hdr, off, err := readHead(data, name, seq)
	if e == nil && errors.Is(err, errTorn) {
		rep.TornTailBytes = int64(len(data))
		fs.logf("%s: torn before the header record (%d bytes)", name, len(data))
		return
	}
	if err == nil {
		if fs.ident == nil {
			id := *hdr
			if fs.shard != nil {
				id.shardIdx, id.shardN = fs.shard.Index, fs.shard.Total
			}
			fs.ident = &id
		}
		err = hdr.mismatch(fs.ident, name)
	}
	if err != nil {
		rep.problemf("%v", err)
		return
	}
	x := newSegIndex()
	end, sealOff, err := scanRecords(name, data, off, hdr.owned, &x, func(vr *versionRecord) {
		fs.checkVersion(name, vr, &x)
	})
	rep.Records += len(x.blobOff) + len(x.verOff)
	rep.Blobs += len(x.blobOff)
	for h := range x.blobOff {
		if _, ok := fs.blobs[h]; !ok {
			fs.blobs[h] = false
		}
	}
	if err != nil {
		rep.problemf("%v", err)
		return
	}
	if e == nil {
		if rep.TornTailBytes = int64(len(data)) - end; rep.TornTailBytes > 0 {
			fs.logf("%s: torn tail of %d bytes at offset %d", name, rep.TornTailBytes, end)
		}
	} else if int64(len(data)) != e.size || end != e.size || sealOff != e.indexOff || x.first != e.first || x.last != e.last {
		rep.problemf("%s: %d bytes, scan ends at %d after versions %d-%d with the seal record at %d; manifest says %d bytes, versions %d-%d, index at %d",
			name, len(data), end, x.first, x.last, sealOff, e.size, e.first, e.last, e.indexOff)
	}
	if sealOff >= 0 {
		_, stored, _, _ := readRecord(data, sealOff)
		if want, err := x.build(); err != nil || !bytes.Equal(stored, want) {
			rep.problemf("%s: index record differs from the index of the records it seals", name)
		}
	}
}

// checkVersion validates one version record of segment name against
// the running chain: dense sequence, nondecreasing resolution vectors,
// and every referenced blob stored in an earlier segment or earlier in
// this one (x).
func (fs *fsckState) checkVersion(name string, vr *versionRecord, x *segIndex) {
	rep := fs.rep
	if fs.lastVer == 0 {
		rep.FirstVersion = vr.version
	} else if vr.version != fs.lastVer+1 {
		rep.problemf("%s: version %d follows %d (chain not dense)", name, vr.version, fs.lastVer)
	}
	for i := range vr.stateVers {
		if fs.lastSV != nil && vr.stateVers[i] < fs.lastSV[i] {
			rep.problemf("%s: version %d: node %d state resolution went backwards (%d after %d)",
				name, vr.version, i, vr.stateVers[i], fs.lastSV[i])
		}
		if fs.lastIV != nil && vr.infoVers[i] < fs.lastIV[i] {
			rep.problemf("%s: version %d: node %d info resolution went backwards", name, vr.version, i)
		}
	}
	fs.lastVer = vr.version
	fs.lastSV = append(fs.lastSV[:0], vr.stateVers...)
	fs.lastIV = append(fs.lastIV[:0], vr.infoVers...)
	vr.eachBlob(func(h rel.ID) {
		_, here := x.blobOff[h]
		if _, stored := fs.blobs[h]; !here && !stored {
			rep.problemf("%s: version %d references missing blob %x", name, vr.version, h[:4])
		}
		fs.blobs[h] = true
	})
}
