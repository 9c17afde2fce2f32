#!/bin/sh
# distrib_smoke.sh proves the distributed pipeline end to end on one machine:
# a coordinator plus two workers generate a dataset, and then run a sweep,
# while one worker is SIGKILLed mid-run, and each result must be
# byte-identical (same dsinspect -digest) to a single-process run of the same
# config or spec.
#
# This is the shell-level companion to the in-process chaos suite
# (internal/distrib/chaos): real binaries, real HTTP, a real kill -9.
set -eu

cd "$(dirname "$0")/.."

PORT="${DISTRIB_SMOKE_PORT:-19009}"
COORD="http://127.0.0.1:${PORT}"
# Big enough that a lone worker cannot finish before the kill lands (~8
# shards), small enough to stay CI-friendly.
FLAGS="-preset small -racks 2 -servers 24 -hours 0,6 -buckets 500 -seed 7"

tmp="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# kill_mid_unit waits until the worker logging to $1 (pid $2) has leased a
# unit and SIGKILLs it then, before it can upload: only lease expiry can
# recover that unit.
kill_mid_unit() {
    i=0
    until grep -q leased "$1"; do
        i=$((i + 1))
        if [ "$i" -gt 3000 ]; then
            echo "distrib_smoke: FAIL: worker $2 never leased a unit" >&2
            exit 1
        fi
        sleep 0.01
    done
    kill -9 "$2" 2>/dev/null || true
    wait "$2" 2>/dev/null || true
    if grep -q committed "$1"; then
        echo "distrib_smoke: FAIL: worker $2 uploaded before the kill landed" >&2
        exit 1
    fi
    echo "   SIGKILLed worker $2 mid-unit"
}

echo ">> building binaries"
go build -o "$tmp/bin/" ./cmd/fleetgen ./cmd/sweep ./cmd/coordinator ./cmd/worker ./cmd/dsinspect

echo ">> golden single-process generation"
# shellcheck disable=SC2086 # FLAGS is a flag list by construction
"$tmp/bin/fleetgen" $FLAGS -o "$tmp/golden.ds"
golden="$("$tmp/bin/dsinspect" -data "$tmp/golden.ds" -digest)"
echo "   golden digest $golden"

echo ">> distributed generation with a SIGKILLed worker"
# No -once: the coordinator keeps serving status until the submitter and the
# surviving worker have both observed completion; the trap reaps it.
"$tmp/bin/coordinator" -listen "127.0.0.1:${PORT}" -lease-ttl 2s &
pids="$pids $!"
sleep 0.5

# Submit the job (the client polls until the job completes).
# shellcheck disable=SC2086
"$tmp/bin/fleetgen" $FLAGS -distributed "$COORD" -o "$tmp/dist.ds" &
submit=$!
pids="$pids $submit"

# The victim worker starts alone so it is guaranteed to hold a lease when the
# kill arrives; its unit is recovered only through lease expiry.
"$tmp/bin/worker" -coordinator "$COORD" -name victim 2>"$tmp/victim.log" &
victim=$!
pids="$pids $victim"
kill_mid_unit "$tmp/victim.log" "$victim"

"$tmp/bin/worker" -coordinator "$COORD" -name survivor &
pids="$pids $!"

if ! wait "$submit"; then
    echo "distrib_smoke: distributed generation failed" >&2
    exit 1
fi

dist="$("$tmp/bin/dsinspect" -data "$tmp/dist.ds" -digest)"
echo "   distributed digest $dist"
if [ "$golden" != "$dist" ]; then
    echo "distrib_smoke: FAIL: distributed digest $dist != golden $golden" >&2
    exit 1
fi
if [ ! -d "$tmp/dist.ds" ]; then
    echo "distrib_smoke: FAIL: no dataset directory produced" >&2
    exit 1
fi

echo ">> golden single-process sweep"
"$tmp/bin/sweep" -preset smoke -o "$tmp/golden.sw" >/dev/null
golden="$("$tmp/bin/dsinspect" -data "$tmp/golden.sw" -digest)"
echo "   golden digest $golden"

echo ">> distributed sweep with a SIGKILLed worker"
# A coordinator holds one job, so the sweep gets its own. Its units are the
# smoke fleet's four rack lanes.
SPORT=$((PORT + 1))
SCOORD="http://127.0.0.1:${SPORT}"
"$tmp/bin/coordinator" -listen "127.0.0.1:${SPORT}" -lease-ttl 2s &
pids="$pids $!"
sleep 0.5

"$tmp/bin/sweep" -preset smoke -distributed "$SCOORD" -o "$tmp/dist.sw" >/dev/null &
submit=$!
pids="$pids $submit"

"$tmp/bin/worker" -coordinator "$SCOORD" -name sweep-victim 2>"$tmp/sweep-victim.log" &
victim=$!
pids="$pids $victim"
kill_mid_unit "$tmp/sweep-victim.log" "$victim"

"$tmp/bin/worker" -coordinator "$SCOORD" -name sweep-survivor &
pids="$pids $!"

if ! wait "$submit"; then
    echo "distrib_smoke: distributed sweep failed" >&2
    exit 1
fi

dist="$("$tmp/bin/dsinspect" -data "$tmp/dist.sw" -digest)"
echo "   distributed digest $dist"
if [ "$golden" != "$dist" ]; then
    echo "distrib_smoke: FAIL: distributed sweep digest $dist != golden $golden" >&2
    exit 1
fi

echo "distrib_smoke: PASS — distributed dataset and sweep byte-identical to single-process"
