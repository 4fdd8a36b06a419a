// Package envfixture exercises the errenvelope analyzer. It declares
// its own miniature envelope helpers and Code* catalog; the analyzer
// accepts helpers from the package under analysis precisely so
// fixtures like this one can be self-contained. The adjacent
// docs/API.md documents bad_query but not ghost_code. The test
// harness type-checks this package as
// repro/internal/server/envfixture so the scope gate admits it.
package envfixture

import (
	"fmt"
	"net/http"

	"repro/client"
)

// The fixture's error-code catalog.
const (
	CodeBadQuery = "bad_query"
	CodeGhost    = "ghost_code" // want `catalog code "ghost_code" \(CodeGhost\) is not documented`
)

// notACode is a string constant outside the catalog.
const notACode = "nope"

// Errf mirrors the serving tier's envelope constructor (code is
// argument 1), the one place an APIError literal is allowed.
func Errf(status int, code, format string, args ...interface{}) *client.APIError {
	return &client.APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteErr mirrors the serving tier's envelope writer (code is
// argument 2).
func WriteErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	w.WriteHeader(status)
	fmt.Fprintf(w, "%s: %s", code, fmt.Sprintf(format, args...))
}

func handler(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusBadRequest) // want `WriteHeader\(400\) reports an error without the envelope body`
	w.WriteHeader(http.StatusOK)         // success statuses carry no envelope: legal
	WriteErr(w, http.StatusBadRequest, CodeBadQuery, "bad query %q", r.URL.Path)
	WriteErr(w, http.StatusBadRequest, "bad_query", "inline")            // want `raw error-code literal "bad_query"`
	_ = Errf(http.StatusBadRequest, notACode, "outside")                 // want `error code notACode is a constant outside the Code\* catalog`
	_ = &client.APIError{Status: http.StatusBadRequest, Code: "made_up"} // want `client.APIError literal: build API errors with Errf`
}

func probe(w http.ResponseWriter) {
	//lint:allow errenvelope bare-status probe endpoint kept to exercise the suppression path
	w.WriteHeader(http.StatusServiceUnavailable)
}
