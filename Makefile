GO ?= go
FUZZTIME ?= 10s
# Pinned linter versions: CI reruns must not change meaning because a
# tool released; bump deliberately, in one reviewed commit.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all vet staticcheck govulncheck fmt-check build test race fuzz bench-check bench-compare serve-smoke scenarios scenarios-slow docs-check ci clean

all: fmt-check vet build test

# vet runs the standard analyzers, then the repo's own nettrailsvet
# suite (docs/ANALYZERS.md) through the go vet driver. Two passes
# because -vettool *replaces* the standard suite rather than extending
# it. The vettool must be a prebuilt binary: cmd/go handshakes it with
# -V=full before any package is analyzed. Banned uses (the wall clock
# in the deterministic core, the uvarint codec outside internal/wire,
# recomputed content identities, goroutines in the single-threaded
# core, ...) are rows of the forbid analyzer's table, so they fail
# here and in `go test ./cmd/nettrailsvet/` alike.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/nettrailsvet ./cmd/nettrailsvet
	$(GO) vet -vettool=$(CURDIR)/bin/nettrailsvet ./...

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

# fuzz gives every native fuzz target a short shake, seeded from the
# test corpora and the golden vectors: each `func Fuzz...` in a package's
# _test.go files is found by scanning them, so a new target cannot be
# skipped and a deleted one leaves no line behind. Override FUZZTIME for
# longer local hunts. One -fuzz invocation per target: go test rejects a
# -fuzz pattern matching more than one function.
fuzz:
	@set -e; pkgs=$$($(GO) list -f '{{.ImportPath}}:{{.Dir}}' ./...); \
	for entry in $$pkgs; do \
		pkg=$${entry%%:*}; dir=$${entry#*:}; \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$dir"/*_test.go 2>/dev/null); do \
			echo "fuzz $$target ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) "$$pkg"; \
		done; \
	done

# bench-check vets and tests the end-to-end benchmark (bench/, declared
# in BENCHMARK.json). It is a separate module, so `go test ./...` never
# compiles it: this is what notices a change to internal/server's or
# internal/gateway's exported API that breaks it. The paper's
# experiments E2–E8 are not here: TestPaperClaims runs them in `make
# test` and checks their counts against README.md.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-compare is the gate between two commits: the benchmark runs on
# BASE (unpacked under .bench_build/) and on the working tree, PAIRS
# alternating pairs per workload on the same seeds, and the target fails
# when an end-to-end median is worse than BASE's by more than its bound
# in BENCHMARK.json or more operations fail (tools/benchcompare). Two
# pairs resolve the allocation metrics; a timing claim needs PAIRS=10.
# With CLAIM the target also fails unless the gain rule holds for that
# metric on WORKLOAD: ahead in 9 of 10 pairs, and in the median by more
# than the base's inter-quartile range.
#   make bench-compare BASE=HEAD~1 [WORKLOAD=maint_flap] [PAIRS=2]
#   make bench-compare BASE=HEAD~1 WORKLOAD=query_hot PAIRS=10 CLAIM=ops_per_s
PAIRS ?= 2
bench-compare:
	$(GO) run ./tools/benchcompare -base "$(BASE)" -workload "$(WORKLOAD)" -pairs $(PAIRS) -claim "$(CLAIM)"

# serve-smoke boots the nettrailsd daemon on an ephemeral port and
# drives /v1/healthz and /v1/query end to end (plus the churn/pinned-version
# checks) — the CI face of the query server. The gateway smoke boots a
# real 3-shard deployment behind nettrailsgw.
serve-smoke:
	$(GO) test -count=1 ./cmd/nettrailsd/ ./cmd/nettrailsgw/

# scenarios runs the adversarial scenario acceptance suite at its
# tier-1 size: every catalog scenario boots both deployment shapes
# (single daemon and 3-shard gateway), replays its fault, and must
# answer every oracle check byte-identically on both; every lineage
# served must pass the proof checker (proofcheck_test.go), which
# re-fires each derivation against the program. The soak tests
# (oracle suite, then churn under concurrent queries) run with them.
scenarios:
	$(GO) test -count=1 ./internal/scenario/

# scenarios-slow adds the RouteViews-scale replay (a 1000-AS generated
# topology, four engine builds) kept behind a build tag so tier-1
# stays fast.
scenarios-slow:
	$(GO) test -count=1 -tags slow -run 'TestPrefixHijackRouteViewsScale' ./internal/scenario/

# docs-check fails when README.md or docs/ drift from the code: broken
# relative links, commands naming missing binaries/flags, or make
# targets that no longer exist (tools/docscheck). Last, the artifact
# guard: numbers live in bench/, so naming a BENCH_*.json here fails.
docs-check:
	$(GO) run ./tools/docscheck
	@out=$$(grep -rnE 'BENCH_[a-z]+\.json' README.md docs Makefile .github); \
	if [ -n "$$out" ]; then echo "legacy BENCH_*.json artifact named outside bench/:"; echo "$$out"; exit 1; fi

ci: fmt-check vet staticcheck govulncheck build race bench-check fuzz serve-smoke scenarios docs-check

clean:
	rm -rf bin
