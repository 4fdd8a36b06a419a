// Package ctxfixture exercises the ctxflow analyzer: dropped ctx
// parameters are flagged; threading the caller's ctx and discarding it
// explicitly with _ are legal. The test harness type-checks this
// package as repro/internal/server/ctxfixture so the scope gate
// admits it.
package ctxfixture

import "context"

type result struct{}

// query threads the caller's ctx: the chain stays unbroken.
func query(ctx context.Context) (*result, error) {
	return queryContext(ctx)
}

func queryContext(ctx context.Context) (*result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &result{}, nil
}

func dropped(ctx context.Context, n int) int { // want `context parameter ctx is dropped`
	return n * 2
}

// blank discards the context explicitly: the signature makes no
// promise, so nothing is flagged.
func blank(_ context.Context, n int) int {
	return n * 2
}

var litHandler = func(ctx context.Context) *result { // want `context parameter ctx is dropped`
	return &result{}
}
