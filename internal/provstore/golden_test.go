package provstore

import (
	"encoding/hex"
	"testing"

	"repro/internal/rel"
)

// Golden vectors for the on-disk record payloads, generated by the
// commit before internal/wire existed. Blobs are addressed by the hash
// of these bytes and sealed segments are read in place for as long as
// retention keeps them, so the encoders may be rewritten but never
// re-decided.
func TestGoldenRecordEncoding(t *testing.T) {
	hdr := &header{format: formatVersion, seq: 300, shardIdx: 1, shardN: 3,
		allNodes: []string{"n1", "n2", "n3"}, owned: []string{"n2"}}
	run := []rel.Tuple{
		rel.NewTuple("link", rel.Addr("n1"), rel.Addr("n2"), rel.Int(3)),
		rel.NewTuple("route", rel.Addr("n1"), rel.List(rel.Addr("n2"), rel.List()), rel.Str("")),
	}
	h := rel.HashBytes([]byte("blob"))
	seg := &segIndex{
		blobOff:   map[rel.ID]int64{h: 4, rel.HashBytes([]byte("other")): 1000},
		verOff:    map[uint64]int64{5: 70, 6: 300, 300: 70000},
		firstSeen: map[string]uint64{firstSeenKey("n1", h): 5, firstSeenKey("n2", h): 6},
	}
	index, err := seg.build()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"header", hdr.marshal(), "01ac02010303026e31026e32026e3301026e32"},
		{"version record", fixtureVersionRecord().appendTo(nil),
			"05320400010000010001047065657201000000000001046c696e6b03010fd0bcfb44f83e7d5ac7a8922578276b9af4874603" +
				"01010fd0bcfb44f83e7d5ac7a8922578276b9af48746010001010fd0bcfb44f83e7d5ac7a8922578276b9af48746010fd0bc" +
				"fb44f83e7d5ac7a8922578276b9af48746010100000000000700"},
		{"chunk blob", appendChunkBlob(nil, []*rel.Tuple{&run[0], &run[1]}), "02046c696e6b0305026e3105026e3201030000000000000005726f7574650305026e31070205026e3207000400"},
		{"empty chunk blob", appendChunkBlob(nil, nil), "00"},
		{"framed record", appendRecord(nil, recBlob, []byte("payload")), "42077061796c6f61645d83e8c3"},
		{"index", index,
			"280fd0d094bc1efb6844daf88f3e387d155a1fc7f8a86a926125fc785927f76bc59acff49f87ca46a228ffffffff3f000000" +
				"28fdffffffff0000000204e8070b000000000000000105062c0bff000000000000000b7f050000000000000346ac02f0a204" +
				"2d6e313200000f0fd0d0bcbcfbfb4444f8f83e3e7d7d5a5ac7c7a8a892922525787827276b6b9a9af4f4878746462dffffff" +
				"ffff0700002dfbffffffff1f0000020506"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}
