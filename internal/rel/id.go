package rel

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/wire"
)

// ID is a 160-bit content hash identifying a tuple (VID) or a rule
// execution (RID) in the provenance graph, following ExSPAN's
// content-addressed vertex scheme.
type ID [20]byte

// ZeroID is the all-zero ID, used as the "no rule" marker for base tuples.
var ZeroID ID

// Compare defines a total order over IDs (byte-lexicographic).
func (id ID) Compare(o ID) int { return bytes.Compare(id[:], o[:]) }

// IsZero reports whether the ID is the zero ID.
func (id ID) IsZero() bool { return id == ZeroID }

// String returns the full hex form.
func (id ID) String() string {
	var b [2 * len(ID{})]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// Short returns an abbreviated hex form for display.
func (id ID) Short() string {
	var b [8]byte
	hex.Encode(b[:], id[:4])
	return string(b[:])
}

// ParseID parses a full 40-hex-digit ID.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("rel: bad id %q: %v", s, err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("rel: bad id length %d, want %d", len(b), len(id))
	}
	copy(id[:], b)
	return id, nil
}

// HashBytes returns the SHA-1 of b as an ID.
func HashBytes(b []byte) ID { return sha1.Sum(b) }

// AppendPart appends p framed as HashParts frames one part (8-byte
// little-endian length, then the bytes): HashBytes over a buffer of
// appended parts equals HashParts over the parts, with no slice per part.
func AppendPart[T string | []byte](b []byte, p T) []byte {
	return append(wire.AppendUint64(b, uint64(len(p))), p...)
}

// HashParts hashes a sequence of byte slices with length framing so that
// part boundaries are unambiguous.
func HashParts(parts ...[]byte) ID {
	h := sha1.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var id ID
	copy(id[:], h.Sum(nil))
	return id
}
