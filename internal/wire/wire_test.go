package wire

import (
	"bytes"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendString(b, "héllo")
	b = AppendBytes(b, nil)
	b = AppendUint64(b, math.MaxUint64-1)
	b = append(b, 7)
	b = AppendUvarint(b, 2)
	b = append(b, "ab"...)
	r := NewReader(b)
	if v := r.Uvarint("u"); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := r.String("s"); s != "héllo" {
		t.Fatalf("String = %q", s)
	}
	if p := r.Bytes("empty"); len(p) != 0 {
		t.Fatalf("Bytes = %x", p)
	}
	if v := r.Uint64("w"); v != math.MaxUint64-1 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := r.Byte("b"); v != 7 {
		t.Fatalf("Byte = %d", v)
	}
	if n := r.Count("n", 2); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if p := r.Fixed("f", 2); string(p) != "ab" {
		t.Fatalf("Fixed = %q", p)
	}
	if err := r.Done("input"); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		take func(r *Reader)
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint("x") }},
		{"unterminated uvarint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint("x") }},
		{"overlong uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint("x") }},
		{"padded uvarint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint("x") }},
		{"padded zero", []byte{0x80, 0x80, 0x00}, func(r *Reader) { r.Uvarint("x") }},
		{"padded length", []byte{0x81, 0x00, 'r'}, func(r *Reader) { _ = r.String("x") }},
		{"empty byte", nil, func(r *Reader) { r.Byte("x") }},
		{"short fixed", []byte{1, 2}, func(r *Reader) { r.Fixed("x", 3) }},
		{"negative fixed", []byte{1, 2}, func(r *Reader) { r.Fixed("x", -1) }},
		{"short uint64", make([]byte, 7), func(r *Reader) { r.Uint64("x") }},
		{"int above int32", AppendUvarint(nil, math.MaxInt32+1), func(r *Reader) { r.Int("x") }},
		{"count above input", []byte{3, 0, 0}, func(r *Reader) { r.Count("x", 100) }},
		{"count above cap", []byte{3, 0, 0, 0}, func(r *Reader) { r.Count("x", 2) }},
		{"string above input", []byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String("x") }},
		{"huge length", AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Bytes("x") }},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.Byte("x") }},
	} {
		r := NewReader(c.in)
		c.take(&r)
		if r.Done("input") == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// A failed take is sticky: later takes return zero values, consume
// nothing and keep the first error.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{9, 1, 2, 3})
	_ = r.Bytes("first") // claims 9 bytes, 3 remain
	first, left := r.Err(), r.Len()
	if first == nil {
		t.Fatal("oversized length accepted")
	}
	if r.Byte("b") != 0 || r.Uvarint("u") != 0 || r.Fixed("f", 1) != nil || r.String("s") != "" {
		t.Fatal("take after failure returned data")
	}
	r.Failf("later")
	if r.Err() != first || r.Done("input") != first || r.Len() != left {
		t.Fatalf("failure not sticky: %v, %d bytes left (was %d)", r.Err(), r.Len(), left)
	}
}

func TestFixedAliasesInputWithoutSpareCapacity(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	r := NewReader(in)
	p := r.Fixed("p", 2)
	if &p[0] != &in[0] || cap(p) != 2 {
		t.Fatalf("Fixed returned a copy or spare capacity (cap %d)", cap(p))
	}
}

func TestPrealloc(t *testing.T) {
	if Prealloc(3) != 3 || Prealloc(maxPrealloc+1) != maxPrealloc {
		t.Fatalf("Prealloc(3) = %d, Prealloc(max+1) = %d", Prealloc(3), Prealloc(maxPrealloc+1))
	}
}

// FuzzReader drives a Reader with an arbitrary take script over
// arbitrary input. Whatever the bytes: no take panics, reads past the
// input, or hands out more than remains; successful takes re-encode to
// a value that decodes to itself; and a failure is sticky.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, AppendString(AppendUvarint([]byte{7}, 300), "abc"))
	f.Add([]byte{6, 6, 6}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{4, 2}, []byte{})
	f.Add([]byte{1, 1, 1}, []byte{0x81, 0x00, 0x72, 0x00})
	f.Fuzz(func(t *testing.T, script, in []byte) {
		r := NewReader(in)
		for _, op := range script {
			before, failed := r.Len(), r.Err() != nil
			var again Reader
			switch op % 8 {
			case 0:
				v := r.Byte("byte")
				again = NewReader([]byte{v})
				if r.Err() == nil && again.Byte("byte") != v {
					t.Fatal("byte round trip")
				}
			case 1:
				v := r.Uvarint("uvarint")
				enc := AppendUvarint(nil, v)
				again = NewReader(enc)
				if r.Err() == nil && (again.Uvarint("uvarint") != v || before-r.Len() != len(enc)) {
					t.Fatal("uvarint round trip")
				}
			case 2:
				if v := r.Int("int"); v < 0 || v > math.MaxInt32 {
					t.Fatalf("Int = %d", v)
				}
			case 3:
				if n := r.Count("count", int(op)); n < 0 || n > r.Len() || n > int(op) {
					t.Fatalf("Count = %d with %d left, cap %d", n, r.Len(), op)
				}
			case 4:
				if p := r.Fixed("fixed", int(op)/8); r.Err() == nil && len(p) != int(op)/8 {
					t.Fatalf("Fixed(%d) returned %d bytes", int(op)/8, len(p))
				}
			case 5:
				v := r.Uint64("uint64")
				again = NewReader(AppendUint64(nil, v))
				if r.Err() == nil && again.Uint64("uint64") != v {
					t.Fatal("uint64 round trip")
				}
			case 6:
				p := r.Bytes("bytes")
				again = NewReader(AppendBytes(nil, p))
				if r.Err() == nil && !bytes.Equal(again.Bytes("bytes"), p) {
					t.Fatal("bytes round trip")
				}
			case 7:
				s := r.String("string")
				again = NewReader(AppendString(nil, s))
				if r.Err() == nil && again.String("string") != s {
					t.Fatal("string round trip")
				}
			}
			if r.Len() > before || (failed && r.Len() != before) {
				t.Fatalf("op %d: %d bytes left after %d (failed before: %v)", op%8, r.Len(), before, failed)
			}
			if failed && r.Err() == nil {
				t.Fatal("error cleared")
			}
		}
		if r.Done("input") == nil && r.Len() != 0 {
			t.Fatal("Done accepted trailing bytes")
		}
	})
}
