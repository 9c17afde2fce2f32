#!/bin/sh
# check.sh runs the full verification gate: build, vet, gofmt, and the test
# suite under the race detector. CI and `make check` both go through here so the
# gate cannot drift between them.
set -eu

cd "$(dirname "$0")/.."

echo ">> go build ./..."
go build ./...

echo ">> go build -tags simdebug ./..."
go build -tags simdebug ./...

echo ">> go vet ./..."
go vet ./...
# The two packages whose results are shared read-only between requests, by
# name, so that narrowing the line above cannot drop them.
go vet ./internal/queryd ./internal/experiments

echo ">> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "check: gofmt would rewrite:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo ">> go test -race ./..."
go test -race ./...

echo ">> go test -tags simdebug ./internal/sim ./internal/netsim ./internal/switchsim ./internal/transport ./internal/testbed"
go test -tags simdebug ./internal/sim ./internal/netsim ./internal/switchsim ./internal/transport ./internal/testbed

# The golden rack-hours under the engine's queue invariants: every pop of a
# real packet workload is checked against both tiers.
echo ">> go test -tags simdebug -run Golden ./internal/fleet"
go test -tags simdebug -run Golden ./internal/fleet

# The single-file dataset path and the old bench-gate pipeline were retired
# in favour of internal/dataset and `go run ./benchmark`; fail if a name from
# either creeps back. Shard and host-run files legitimately end in .gob.gz,
# so only the old dataset file names are matched. Likewise the streamed
# temp-file shard path and the duplicate store helpers folded into
# internal/unitstore: no sink holds anything outside memory, so the optional
# abort interface and the exported fsync wrappers must not return. CHANGES.md,
# ROADMAP.md and benchmark/README.md keep the history and are not searched.
# Likewise queryd's per-request line record: encodeRun is the one place a run
# becomes JSON, and no queryd source file builds a json.Encoder (httpserve
# writes the error and catalog bodies). The one-letter brackets keep this
# script from matching itself. Likewise the in-memory dataset path beside the
# store, the harvest option struct nobody set and the example the fig3/fig4
# tests cover; the \( keeps fleet.GenerateStream( legal.
echo ">> retired-path guard"
if git grep --untracked -nE 'fleet\.gob\.g[z]|small\.gob\.g[z]|bench[g]ate|BENCH_[P]R[0-9]|Looks[S]harded|generate[L]egacy|fleet\.[A]borter|abort[V]isitor|verify[S]hardFile|verify[P]ointFile|fsutil\.[S]ync(File|Dir)|stream[L]ine|fleet\.[G]enerate\(|dataset\.[W]rite\(|mem[S]ink|Harvest[P]olicy|examples/[v]alidation' -- \
    '*.go' Makefile scripts .github README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify; then
    echo "check: a retired single-file dataset / bench-gate / streamed-shard / stream-record name reappeared (see above)" >&2
    exit 1
fi
if git grep --untracked -nE 'json\.New[E]ncoder' -- 'internal/queryd/*.go' ':!internal/queryd/*_test.go'; then
    echo "check: a json.Encoder is back in queryd; stream lines go through encodeRun and appendLine" >&2
    exit 1
fi

echo "check: all green"
