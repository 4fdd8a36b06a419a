package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// FuzzIndent checks the body renderer's indenter against encoding/json:
// whatever the fuzzer's bytes decode to, its compact encoding indented
// by the sink's state machine equals json.Indent's output with the API's
// indent, with and without the newline json.Encoder ends a value with,
// across chunk ends wherever they fall; and writeJSON serves exactly
// that under its Content-Length, and hands keep the same bytes in a
// buffer of their size.
func FuzzIndent(f *testing.F) {
	for _, seed := range []string{
		`{"q":"say \"hi\"","b":"back\\slash\\\\","c":"\\\"","d":"\\"}`,
		`{}`,
		`[]`,
		`{"a":{},"b":[],"c":[{},[]],"d":{"e":{"f":[[]]}}}`,
		`{"html":"<a href=\"x\">&amp;</a>","k<>&":"<>&"}`,
		"[\"line\u2028separator\u2029\",\"\\u2028\"]",
		`[1,-2.5e10,true,false,null,"x",{"n":0}]`,
	} {
		f.Add([]byte(seed))
	}
	pub, err := NewPublisher(buildGrid(f, 2), 0)
	if err != nil {
		f.Fatal(err)
	}
	rec := serve(New(pub, Info{Protocol: "mincost"}), "POST", "/v1/query", `{"q":"lineage of mincost(@'n1','n4',2)"}`)
	if rec.Code != http.StatusOK {
		f.Fatalf("lineage: %d %s", rec.Code, rec.Body)
	}
	f.Add(rec.Body.Bytes())
	// Bodies larger than one chunk: a string longer than the chunk, a
	// string that straddles the chunk's end, many chunks of small values,
	// and nesting deep enough that indentation runs cross chunk ends.
	long := strings.Repeat("x", chunkSize+chunkSize/2)
	f.Add([]byte(`{"text":"` + long + `","n":1}`))
	f.Add([]byte(`["` + long[:chunkSize-countRoom-100] + `","` + long[:200] + `"]`))
	f.Add([]byte(`[` + strings.Repeat(`"ab\"c",[1,{"k":null}],`, chunkSize/8) + `0]`))
	f.Add([]byte(strings.Repeat(`{"k":[`, 200) + `"leaf"` + strings.Repeat(`]}`, 200)))

	check := func(t *testing.T, what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, json.Indent: %d bytes\n%.400s\nwant\n%.400s", what, len(got), len(want), got, want)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", indent); err != nil {
			t.Fatal(err)
		}
		check(t, "indented", indentAll(t, compact), want.Bytes())
		want.WriteByte('\n')
		check(t, "indented with newline", indentAll(t, append(compact, '\n')), want.Bytes())

		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		check(t, "WriteJSON", rec.Body.Bytes(), want.Bytes())
		if cl := rec.Result().Header.Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Fatalf("Content-Length %s, body %d bytes", cl, want.Len())
		}
		var kept []byte
		rec = httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v, func(body []byte) { kept = body })
		check(t, "writeJSON with keep", rec.Body.Bytes(), want.Bytes())
		check(t, "kept", kept, want.Bytes())
		if cap(kept) != len(kept) {
			t.Fatalf("kept body has capacity %d for %d bytes", cap(kept), len(kept))
		}
		WriteJSON(httptest.NewRecorder(), http.StatusOK, []string{strings.Repeat("y", len(kept))})
		check(t, "kept after the next body", kept, want.Bytes())
	})
}

// indentAll indents src whole through the sink's state machine as
// Write does, but through a 64-byte chunk whose last 16 bytes count, so
// that even a small body crosses chunk ends: filled until the chunk stops
// it, counted on from there, then finished from there into a buffer of
// the counted size and, apart, streamed after the head.
func indentAll(t *testing.T, src []byte) []byte {
	t.Helper()
	const chunk, room = 64, 16
	var s bodySink
	buf := make([]byte, chunk)
	head, at, _ := s.indent(buf[:0:chunk-room], src, indentState{})
	s.mode = count
	rest, _, _ := s.indent(buf[len(head):len(head)], src, at)
	s.emit(rest)
	size := len(head) + s.n
	s.mode = whole
	out, _, _ := s.indent(append(make([]byte, 0, size), head...), src, at)
	if len(out) != size || cap(out) != size {
		t.Fatalf("counted %d bytes, indented %d", size, len(out))
	}
	rec := httptest.NewRecorder()
	s.mode, s.w = send, rec
	s.emit(head)
	rest, _, _ = s.indent(buf[:0], src, at)
	s.emit(rest)
	if !bytes.Equal(rec.Body.Bytes(), out) {
		t.Fatalf("streamed\n%s\nindented whole\n%s", rec.Body.Bytes(), out)
	}
	return out
}
