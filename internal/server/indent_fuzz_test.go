package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// FuzzIndent checks the body renderer's indenter against encoding/json:
// whatever the fuzzer's bytes decode to, its compact encoding indented
// by appendIndent equals json.Indent's output with the API's indent,
// with and without the newline json.Encoder ends a value with.
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
		if got := appendIndent(nil, compact); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndent(%s) =\n%s\njson.Indent:\n%s", compact, got, want.Bytes())
		}
		want.WriteByte('\n')
		if got := appendIndent(nil, append(compact, '\n')); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndent(%s + newline) =\n%s\njson.Indent:\n%s", compact, got, want.Bytes())
		}
	})
}
