// Package wire is the one varint/string codec under every NetTrails
// byte format: the canonical value/tuple encoding (and so every VID and
// RID), the provenance bucket blobs and the snapshot store's record
// payloads. Encoders are append-style — []byte
// in, []byte out, no buffer type — and every decoder is a Reader.
//
// The primitives are fixed: a uvarint is encoding/binary's, a string or
// byte run is its uvarint length followed by its bytes, fixed-width
// integers are little-endian. Bytes written through this package are
// hashed and persisted; changing a primitive is a format break.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v in uvarint form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendString appends s prefixed by its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p prefixed by its uvarint length.
func AppendBytes(b, p []byte) []byte {
	return append(AppendUvarint(b, uint64(len(p))), p...)
}

// AppendUint64 appends v as 8 little-endian bytes.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// Reader decodes one input front to back. The first failed take records
// an error naming what was being read; every later take returns a zero
// value and consumes nothing, so a decoder is written as straight-line
// takes and checks Err (or Done) once — though a loop bounded by a
// decoded count must also stop on Err, or it spins to that count.
// Every length is checked against the input that remains before it is
// used, so no take allocates or slices beyond the input.
//
// A Reader is a small value meant to live on the caller's stack.
type Reader struct {
	b   []byte // the input not yet consumed
	err error
}

// NewReader returns a Reader over b. It keeps no copy: takes that
// return slices alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.b) }

// Err returns the first error recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records an error unless an earlier one is already recorded.
// Decoders use it for their own validation failures so that those stop
// the decode the same way a truncated input does.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Done reports the decode's outcome: the first error recorded, or an
// error when input remains after the last take.
func (r *Reader) Done(what string) error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes after %s", len(r.b), what)
	}
	return r.err
}

// Byte takes one byte.
func (r *Reader) Byte(what string) byte {
	if p := r.Fixed(what, 1); p != nil {
		return p[0]
	}
	return 0
}

// Uvarint takes one uvarint in its minimal form: a padded encoding,
// whose last byte adds no bits, is rejected, so every value has exactly
// one accepted byte string.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Failf("wire: truncated or malformed %s", what)
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.Failf("wire: non-minimal %s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int takes a uvarint that must fit a non-negative int32 — an index or
// a counter, never a length to allocate by.
func (r *Reader) Int(what string) int {
	v := r.Uvarint(what)
	if v > math.MaxInt32 {
		r.Failf("wire: %s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// Count takes the element count of a sequence whose elements each
// occupy at least one byte: it must not exceed the remaining input nor
// max. Size the destination with Prealloc(count), not count.
func (r *Reader) Count(what string, max int) int {
	v := r.Uvarint(what)
	if v > uint64(len(r.b)) || v > uint64(max) {
		r.Failf("wire: %s %d exceeds input", what, v)
		return 0
	}
	return int(v)
}

// maxPrealloc bounds what a decoder allocates on the word of a count
// alone. A count is only known to be at most the remaining byte count,
// and elements are tens of bytes in memory, so sizing by it would let
// a short hostile input claim gigabytes; past this many elements the
// destination grows by append, as fast as input is actually decoded.
const maxPrealloc = 1024

// Prealloc is the capacity to create a Count-ed destination with.
func Prealloc(count int) int { return min(count, maxPrealloc) }

// Fixed takes exactly n bytes. The result aliases the input (which may
// be a read-only mapping): callers copy what they keep and never write
// through it. It is nil after a failure.
func (r *Reader) Fixed(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Failf("wire: truncated %s", what)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Uint64 takes 8 little-endian bytes.
func (r *Reader) Uint64(what string) uint64 {
	if p := r.Fixed(what, 8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Bytes takes a length-prefixed byte run; like Fixed, the result
// aliases the input.
func (r *Reader) Bytes(what string) []byte {
	return r.Fixed(what, r.Count(what, math.MaxInt))
}

// String takes a length-prefixed string (a copy of the input bytes).
func (r *Reader) String(what string) string { return string(r.Bytes(what)) }
