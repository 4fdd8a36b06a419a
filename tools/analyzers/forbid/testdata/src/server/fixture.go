// Package serverfixture exercises the serving tier's rules. The test
// harness type-checks it as repro/internal/server/forbidfixture, where
// errenvelope and ctxflow bind.
package serverfixture

import (
	"context"
	"net/http"
)

func handler(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "boom", http.StatusInternalServerError) // want `^errenvelope: http\.Error writes a plain-text error`
	http.NotFound(w, r)                                   // want `^errenvelope: http\.NotFound writes a plain-text error`
}

// notFound is the escape hatch as a handler value.
var notFound = http.HandlerFunc(http.NotFound) // want `^errenvelope: http\.NotFound writes a plain-text error`

func query(ctx context.Context) error { return ctx.Err() }

func detached() error {
	return query(context.Background()) // want `^ctxflow: context\.Background starts a fresh root mid-chain`
}

func parked() error {
	return query(context.TODO()) // want `^ctxflow: context\.TODO starts a fresh root mid-chain`
}

func compat() error {
	//lint:allow ctxflow context-free compatibility entry point exercised by the suppression test
	return query(context.Background())
}
