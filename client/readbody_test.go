package client

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestReadBody: a declared length is read into one buffer of that size,
// a body shorter than declared is an error, and a reply without a
// length (or one past the pre-size cap) is still read whole.
func TestReadBody(t *testing.T) {
	const payload = `{"ok":true}`
	for _, tc := range []struct {
		name    string
		length  int64
		body    string
		wantErr bool
	}{
		{"declared", int64(len(payload)), payload, false},
		{"unknown length", -1, payload, false},
		{"past the pre-size cap", maxPresize + 1, payload, false},
		{"shorter than declared", int64(len(payload)) + 1, payload, true},
	} {
		resp := &http.Response{ContentLength: tc.length, Body: io.NopCloser(strings.NewReader(tc.body))}
		data, err := readBody(resp)
		if (err != nil) != tc.wantErr || (err == nil && string(data) != tc.body) {
			t.Errorf("%s: readBody = %q, %v", tc.name, data, err)
		}
	}
}
