package provstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/wire"
)

// realSegmentBytes builds a genuine segment pair (one sealed with an
// index record, one active tail) through the real append path, for
// fuzz seeds.
func realSegmentBytes(f *testing.F) [][]byte {
	f.Helper()
	dir, err := os.MkdirTemp("", "provstore-fuzz-seed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := Options{AllNodes: []string{"n0"}, Owned: []string{"n0"}, SealVersions: 2}
	st, err := Open(dir, opts)
	if err != nil {
		f.Fatal(err)
	}
	tbl := rel.NewTable(rel.NewSchema("link", 2))
	prov := provenance.NewStore("n0")
	for v := uint64(1); v <= 3; v++ {
		t := rel.NewTuple("link", rel.Addr("n0"), rel.Int(int64(v)))
		tbl.Apply(t, 1)
		prov.AddBase(t)
		in := VersionInput{Version: v, Time: int64(v), States: []NodeState{{
			OwnedIdx: 0,
			Info:     Info{Neighbors: []string{"peer"}, Tuples: tbl.Len(), Prov: prov.Statistics()},
			Tables:   map[string]*rel.Frozen{"link": tbl.Freeze()},
			View:     prov.View(),
		}}}
		if err := st.Append(in); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, name := range []string{segmentName(1), segmentName(2)} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzDecodeSegment feeds arbitrary bytes through the reader recovery
// and fsck use, readHead then scanRecords, and decodes what the scan
// finds: every blob as a chunk run, every version record re-encoded,
// and the seal record's three tries. The invariant is crash-freedom —
// corrupt input must surface as an error or a truncated scan, never a
// panic or unbounded allocation — plus, for each trie the seal record
// holds, a walk that visits exactly Len keys.
func FuzzDecodeSegment(f *testing.F) {
	for _, seed := range realSegmentBytes(f) {
		f.Add(seed)
		// A torn variant: the seed minus its tail bytes.
		f.Add(seed[:len(seed)*2/3])
	}
	f.Add([]byte(segmentMagic))
	f.Add([]byte("NTPSxxxx"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The seeds are segments 1 and 2.
		var hdr *header
		var off int64
		var err error
		for seq := uint64(1); seq <= 2 && hdr == nil; seq++ {
			hdr, off, err = readHead(data, "fuzz", seq)
		}
		if err != nil {
			return
		}
		_ = hdr.marshal()
		x := newSegIndex()
		_, sealOff, err := scanRecords("fuzz", data, off, hdr.owned, &x, func(vr *versionRecord) {
			_ = vr.appendTo(nil)
		})
		if err != nil {
			return
		}
		_, _ = x.build()
		for _, off := range x.blobOff {
			_, payload, _, _ := readRecord(data, off)
			_, _ = decodeChunkBlob(payload)
		}
		if sealOff < 0 {
			return
		}
		_, payload, _, _ := readRecord(data, sealOff)
		r := wire.NewReader(payload)
		for i := 0; i < 3; i++ {
			tr, err := UnmarshalTrie(&r)
			if err != nil {
				break
			}
			_, _ = tr.Get([]byte("probe"))
			n := 0
			_ = tr.Walk(func([]byte, uint64) error {
				n++
				return nil
			})
			if n != tr.Len() {
				t.Fatalf("trie walk visited %d of %d keys", n, tr.Len())
			}
		}
	})
}

// fixtureVersionRecord is a two-node record exercising every field:
// one state entry (tables, all three bucket spines with a present and
// an absent slot, a first-seen VID) and one info-only entry.
func fixtureVersionRecord() *versionRecord {
	h := rel.HashBytes([]byte("blob"))
	return &versionRecord{
		version:   5,
		time:      50,
		minState:  4,
		stateVers: []uint64{5, 4},
		infoVers:  []uint64{5, 5},
		states: []stateEntry{{
			ownedIdx: 0,
			info:     Info{Neighbors: []string{"peer"}, Tuples: 1},
			tables:   []tableEntry{{name: "link", version: 3, chunks: []rel.ID{h}}},
			view: viewEntry{
				version: 3,
				prov:    []blobRef{{present: true, hash: h}},
				exec:    []blobRef{{}},
				pins:    []blobRef{{present: true, hash: h}},
			},
			firstSeen: []rel.ID{h},
		}},
		infos: []infoEntry{{ownedIdx: 1, info: Info{SentMsgs: 7}}},
	}
}

// FuzzDecodeVersionRecord hammers the version-record decoder. Beyond
// crash-freedom, every accepted record must round-trip: re-marshaling
// the decoded form and decoding again yields the same record, so the
// canonical encoding cannot drift from the decoder.
func FuzzDecodeVersionRecord(f *testing.F) {
	vr := fixtureVersionRecord()
	f.Add(vr.appendTo(nil), 2)
	f.Add(vr.appendTo(nil), 1)
	f.Add(vr.appendTo(nil)[:10], 2)
	f.Add([]byte{}, 1)
	f.Add([]byte{5, 1, 2}, 3)
	f.Fuzz(func(t *testing.T, payload []byte, nOwned int) {
		nOwned = nOwned&7 + 1
		vr, err := unmarshalVersionRecord(payload, nOwned)
		if err != nil {
			return
		}
		again, err := unmarshalVersionRecord(vr.appendTo(nil), nOwned)
		if err != nil {
			t.Fatalf("re-decode of canonical marshal failed: %v", err)
		}
		if !reflect.DeepEqual(vr, again) {
			t.Fatalf("version record did not round-trip:\n%+v\n%+v", vr, again)
		}
	})
}
