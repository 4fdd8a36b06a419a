package provenance

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
)

// renderBuckets spells out one bucket directory: the spine length,
// then every non-empty bucket as index=hex.
func renderBuckets(dir [][]byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", len(dir))
	for i, enc := range dir {
		if enc != nil {
			fmt.Fprintf(&b, " %d=%s", i, hex.EncodeToString(enc))
		}
	}
	return b.String()
}

// Golden vectors for the view persistence encoding, generated by the
// commit before internal/wire existed. Bucket blobs are content
// addressed on disk and hashed into the parity digests, so a byte of
// drift orphans every stored bucket and breaks digest parity with
// older builds.
func TestGoldenPersistBuckets(t *testing.T) {
	prov, exec, pins := persistFixtureView(t, 3).PersistBuckets()
	// A view big enough to split its directories, pinned by hash.
	bigProv, bigExec, bigPins := persistFixtureView(t, 300).PersistBuckets()
	big := sha1.Sum([]byte(renderBuckets(bigProv) + "\n" + renderBuckets(bigExec) + "\n" + renderBuckets(bigPins)))
	if got, want := hex.EncodeToString(big[:]), "5a4c304bbdcfa1c5c61d16c0afb7a256e3ebc053"; got != want {
		t.Errorf("300-tuple view: bucket rendering hashes to %s, want %s", got, want)
	}
	if len(bigProv) < 2 || len(bigExec) < 2 || len(bigPins) < 2 {
		t.Errorf("300-tuple view did not split: spines %d/%d/%d", len(bigProv), len(bigExec), len(bigPins))
	}
	for _, g := range []struct {
		name string
		dir  [][]byte
		want string
	}{
		{"prov", prov,
			"1 0=0545992d116e5404e946e74362959952fd60ab511b01b5f82e258875051b5e3ca5025d1f31aba6cb3da8026e305ddc04" +
				"bd5340098968aca05a97a1a3a38f783865010000000000000000000000000000000000000000006d277230d7be385457765e" +
				"dc8e9fc9518c8b79bf010000000000000000000000000000000000000000009843ac9f9f91d0a1e1b58e03b7bda63319588b" +
				"6901f55104cef227c31dad82073644d26709c171c1cc026e30cf68e1246a4a512b41790a301c1a22a8450d929f0100000000" +
				"0000000000000000000000000000000000"},
		{"exec", exec,
			"1 0=02b5f82e258875051b5e3ca5025d1f31aba6cb3da8027231025ddc04bd5340098968aca05a97a1a3a38f783865cf68e1" +
				"246a4a512b41790a301c1a22a8450d929ff55104cef227c31dad82073644d26709c171c1cc02723102cf68e1246a4a512b41" +
				"790a301c1a22a8450d929f6d277230d7be385457765edc8e9fc9518c8b79bf"},
		{"pins", pins,
			"1 0=0545992d116e5404e946e74362959952fd60ab511b04706174680205026e300101000000000000005ddc04bd53400989" +
				"68aca05a97a1a3a38f783865046c696e6b0205026e300100000000000000006d277230d7be385457765edc8e9fc9518c8b79" +
				"bf046c696e6b0205026e300102000000000000009843ac9f9f91d0a1e1b58e03b7bda63319588b6904706174680205026e30" +
				"010200000000000000cf68e1246a4a512b41790a301c1a22a8450d929f046c696e6b0205026e30010100000000000000"},
	} {
		if got := renderBuckets(g.dir); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, g.want)
		}
	}
}

// Store.Digest hashes the partition's rendered prov/ruleExec
// tuples in the canonical tuple encoding.
func TestGoldenStoreDigest(t *testing.T) {
	s := NewStore("n0")
	base := rel.NewTuple("link", rel.Addr("n0"), rel.Int(1))
	s.AddBase(base)
	s.RecordFiring(eval.NewFiring("r1", "n0", []rel.Tuple{base},
		rel.NewTuple("path", rel.Addr("n0"), rel.Int(1)), "n0", 1))
	if got, want := s.Digest().String(), "57093a1313dcbc0854e1a375260d9600ab069165"; got != want {
		t.Errorf("Store.Digest = %s, want %s", got, want)
	}
}
