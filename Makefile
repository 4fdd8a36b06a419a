GO ?= go
FUZZTIME ?= 10s
# Pinned linter versions: CI reruns must not change meaning because a
# tool released; bump deliberately, in one reviewed commit.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all vet staticcheck govulncheck fmt-check build test race fuzz bench bench-publish bench-store bench-check serve-smoke scenarios scenarios-slow engine-dist docs-check ci clean

all: fmt-check vet build test

# vet runs the standard analyzers, then the repo's own nettrailsvet
# suite (docs/ANALYZERS.md) through the go vet driver. Two passes
# because -vettool *replaces* the standard suite rather than extending
# it. The vettool must be a prebuilt binary: cmd/go handshakes it with
# -V=full before any package is analyzed. Last, the codec guard:
# internal/wire is the only place uvarints are put or taken, so a
# private codec beside it fails here instead of growing quietly.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/nettrailsvet ./cmd/nettrailsvet
	$(GO) vet -vettool=$(CURDIR)/bin/nettrailsvet ./...
	@out=$$(grep -rnE 'binary\.(PutUvarint|AppendUvarint|Uvarint|ReadUvarint)\(' --include='*.go' internal | grep -v -e '_test\.go:' -e '^internal/wire/'); \
	if [ -n "$$out" ]; then echo "uvarint codec outside internal/wire:"; echo "$$out"; exit 1; fi

# staticcheck runs when the binary is installed (CI installs it; local
# dev machines may not have it, and the build must not require network).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# govulncheck scans the module against the Go vulnerability database.
# Like staticcheck it degrades to a no-op where the binary (or the
# network) is absent, so offline builds stay green.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# fmt-check fails (listing the offenders) when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz gives the hand-written parsers (the provenance query language,
# NDlog, the RouteViews table/AS-graph readers, the one wire.Reader and
# the tuple and cluster-frame decoders built on it, the snapshot store's
# segment/record decoders, and the TCP frame) a short native-fuzzing
# shake, seeded from the test corpora and the golden vectors. Override FUZZTIME for longer local
# hunts. One -fuzz invocation per target: go test rejects a -fuzz
# pattern matching more than one function.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./internal/provquery
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/ndlog
	$(GO) test -run '^$$' -fuzz '^FuzzParseRouteViews$$' -fuzztime $(FUZZTIME) ./internal/routeviews
	$(GO) test -run '^$$' -fuzz '^FuzzParseASGraph$$' -fuzztime $(FUZZTIME) ./internal/routeviews
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalTuple$$' -fuzztime $(FUZZTIME) ./internal/rel
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime $(FUZZTIME) ./internal/provstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeVersionRecord$$' -fuzztime $(FUZZTIME) ./internal/provstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/nettransport

# bench sweeps the tracked benchmark suites and records the results as
# JSON so the performance trajectory is archived over time:
#   - BENCH_parallel.json: the parallel epoch scheduler (serial vs
#     worker-pool convergence on path-vector, mincost, and BGP)
#   - BENCH_serve.json: nettrailsd query serving (N concurrent HTTP
#     clients against a live 8-AS BGP run under snapshot isolation)
#   - BENCH_querycache.json: the per-version sub-proof cache (cold
#     traversal vs cache-served repeats, direct and over HTTP)
#   - BENCH_api.json: the v1 batch endpoint through the Go SDK
#     (sequential round trips vs one batch vs a batch denied its
#     shared sub-proof cache)
#   - BENCH_sharded.json: the sharded serving tier (single process vs
#     a 3-shard deployment behind a colocated or pure gateway, with
#     real downstream hops/op)
#   - BENCH_scenarios.json: the adversarial scenario soak (gateway
#     query latency percentiles, cache hit rate, and publish rate
#     under engine churn), via cmd/nettrailssoak
#   - BENCH_publish.json: the O(delta) epoch-snapshot publish path
#     (1/10/100-tuple deltas on the 8-AS trace and a generated
#     1000-AS graph; allocs/op must track the delta, not the state)
#   - BENCH_store.json: the on-disk snapshot store (append with
#     fsync at delta 1/10/100, cold any-epoch materialization from
#     sealed segments, recovery over a 10k-epoch log)
bench: bench-publish bench-store
	$(GO) test -run '^$$' -bench 'BenchmarkParallel' -benchtime 3x . | tee bench_parallel.out
	$(GO) run ./tools/benchjson < bench_parallel.out > BENCH_parallel.json
	$(GO) test -run '^$$' -bench 'BenchmarkServeQueries' -benchtime 3x . | tee bench_serve.out
	$(GO) run ./tools/benchjson < bench_serve.out > BENCH_serve.json
	$(GO) test -run '^$$' -bench 'BenchmarkQueryCache' -benchtime 20x . | tee bench_querycache.out
	$(GO) run ./tools/benchjson < bench_querycache.out > BENCH_querycache.json
	$(GO) test -run '^$$' -bench 'BenchmarkAPIBatch' -benchtime 20x . | tee bench_api.out
	$(GO) run ./tools/benchjson < bench_api.out > BENCH_api.json
	$(GO) test -run '^$$' -bench 'BenchmarkShardedQuery' -benchtime 20x . | tee bench_sharded.out
	$(GO) run ./tools/benchjson < bench_sharded.out > BENCH_sharded.json
	$(GO) run ./cmd/nettrailssoak -hijack-nodes 48 -clients 8 -queries 2000 -churn 200 -out BENCH_scenarios.json
	@rm -f bench_parallel.out bench_serve.out bench_querycache.out bench_api.out bench_sharded.out

# bench-publish records just the publish-path sweep (the cheap one to
# rerun while touching the snapshot pipeline).
bench-publish:
	$(GO) test -run '^$$' -bench 'BenchmarkPublish' -benchtime 20x . | tee bench_publish.out
	$(GO) run ./tools/benchjson < bench_publish.out > BENCH_publish.json
	@rm -f bench_publish.out

# bench-store records just the snapshot-store sweep (the cheap one to
# rerun while touching internal/provstore).
bench-store:
	$(GO) test -run '^$$' -bench 'BenchmarkStore' -benchtime 20x ./internal/provstore | tee bench_store.out
	$(GO) run ./tools/benchjson < bench_store.out > BENCH_store.json
	@rm -f bench_store.out

# bench-check vets and tests the end-to-end benchmark (bench/, declared
# in BENCHMARK.json). It is a separate module, so `go test ./...` never
# compiles it: this is what notices a change to internal/server's or
# internal/gateway's exported API that breaks it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# serve-smoke boots the nettrailsd daemon on an ephemeral port and
# drives /v1/healthz and /v1/query end to end (plus the churn/pinned-version
# checks) — the CI face of the query server. The gateway smoke boots a
# real 3-shard deployment behind nettrailsgw.
serve-smoke:
	$(GO) test -count=1 ./cmd/nettrailsd/ ./cmd/nettrailsgw/

# scenarios runs the adversarial scenario acceptance suite at its
# tier-1 size: every catalog scenario boots both deployment shapes
# (single daemon and 3-shard gateway), replays its fault, and must
# answer every oracle check byte-identically on both.
scenarios:
	$(GO) test -count=1 ./internal/scenario/

# scenarios-slow adds the RouteViews-scale replay (a 1000-AS generated
# topology, four engine builds) kept behind a build tag so tier-1
# stays fast.
scenarios-slow:
	$(GO) test -count=1 -tags slow -run 'TestPrefixHijackRouteViewsScale' ./internal/scenario/

# engine-dist boots the distributed engine as real OS processes: the
# same convergence script runs as one plain process and as 2- and
# 3-member TCP clusters, every member's per-node snapshot digests must
# match the single-process run byte for byte, and the epoch
# throughput / cut latency of each shape is archived in
# BENCH_dist.json (cmd/nettrailsdist).
engine-dist:
	$(GO) run ./cmd/nettrailsdist -out BENCH_dist.json

# docs-check fails when README.md or docs/ drift from the code: broken
# relative links, commands naming missing binaries/flags, or make
# targets that no longer exist (tools/docscheck).
docs-check:
	$(GO) run ./tools/docscheck

ci: fmt-check vet staticcheck govulncheck build race bench-check fuzz serve-smoke scenarios engine-dist docs-check bench

# clean removes scratch files only; BENCH_*.json are committed
# trajectory artifacts and must survive a clean.
clean:
	rm -f bench_*.out
	rm -rf bin
