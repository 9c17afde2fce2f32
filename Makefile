GO ?= go

.PHONY: build test check vet race bench loc distrib-smoke queryd-smoke hoststack-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the verification gate: build (release and simdebug) + vet +
# race-enabled tests.
check:
	./scripts/check.sh

# bench runs the repository's one benchmark (BENCHMARK.json; see
# benchmark/README.md for -short, -runs/-save and the noise-aware -compare).
bench:
	$(GO) run ./benchmark

# loc prints the size ROADMAP's "small" aim tracks: non-test, non-benchmark
# Go lines.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# distrib-smoke runs the coordinator + 2 workers end-to-end kill test:
# real binaries, real HTTP, one worker SIGKILLed mid-run, digest compared
# against a single-process golden.
distrib-smoke:
	./scripts/distrib_smoke.sh

# queryd-smoke runs the read-side query service end-to-end: real binaries,
# real HTTP; catalog, streaming NDJSON, cached renders (hit + byte-identity
# vs the local CLI), ETag revalidation, client mode, graceful drain.
queryd-smoke:
	./scripts/queryd_smoke.sh

# hoststack-smoke proves the host-stack instrument at the shell level:
# instrumented generation digest-stable across an interrupted resume,
# dsinspect surfacing, and refusal to mix instrumented and uninstrumented
# shards in one dataset.
hoststack-smoke:
	./scripts/hoststack_smoke.sh
