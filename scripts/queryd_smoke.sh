#!/bin/sh
# queryd_smoke.sh proves the read-side query service end to end with real
# binaries and real HTTP: generate a small dataset, serve it with queryd,
# and check the full client contract —
#
#   - catalog discovery lists the dataset complete with a store digest;
#   - the streaming NDJSON query delivers every run;
#   - the same render fetched twice is byte-identical and the second is a
#     cache hit (X-Cache: hit);
#   - the served render is byte-identical to what the local CLI renders
#     from the same store;
#   - the same render in a second format formats the tables the first
#     computed (one more tables-cache hit);
#   - one rack's runs fetched twice are byte-identical and the second is
#     served from the decoded-shard cache;
#   - three formats of one what-if table open the sweep store once (its
#     tables are cached like a dataset render's);
#   - a conditional request with the returned ETag gets 304 Not Modified;
#   - `experiments -server` (client mode) returns those same bytes;
#   - dsinspect agrees with the server about the sweep's sealed digest;
#   - SIGTERM drains the server cleanly (exit 0).
set -eu

cd "$(dirname "$0")/.."

PORT="${QUERYD_SMOKE_PORT:-19010}"
BASE="http://127.0.0.1:${PORT}"
FLAGS="-preset small -racks 2 -servers 24 -hours 0,6 -buckets 500 -seed 7"

tmp="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo ">> building binaries"
go build -o "$tmp/bin/" ./cmd/fleetgen ./cmd/queryd ./cmd/experiments ./cmd/dsinspect ./cmd/sweep

echo ">> generating smoke stores"
# shellcheck disable=SC2086 # FLAGS is a flag list by construction
"$tmp/bin/fleetgen" $FLAGS -o "$tmp/root/fleet.ds"
"$tmp/bin/sweep" -preset smoke -o "$tmp/root/whatif"

echo ">> starting queryd"
"$tmp/bin/queryd" -root "$tmp/root" -addr "127.0.0.1:${PORT}" &
queryd_pid=$!
pids="$pids $queryd_pid"
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || { echo "queryd_smoke: server never came up" >&2; exit 1; }

echo ">> catalog discovery"
catalog="$(curl -sf "$BASE/v1/catalog")"
echo "$catalog" | grep -q '"name":"fleet.ds"' || { echo "queryd_smoke: FAIL: dataset missing from catalog: $catalog" >&2; exit 1; }
echo "$catalog" | grep -q '"name":"whatif"' || { echo "queryd_smoke: FAIL: sweep missing from catalog: $catalog" >&2; exit 1; }
echo "$catalog" | grep -q '"complete":true' || { echo "queryd_smoke: FAIL: stores not complete: $catalog" >&2; exit 1; }

echo ">> streaming query"
lines="$(curl -sf "$BASE/v1/datasets/fleet.ds/runs" | wc -l)"
# small preset, 2 racks/region x 2 regions x 2 hours = 8 runs.
[ "$lines" -eq 8 ] || { echo "queryd_smoke: FAIL: streamed $lines runs, want 8" >&2; exit 1; }
filtered="$(curl -sf "$BASE/v1/datasets/fleet.ds/runs?hour=6" | wc -l)"
[ "$filtered" -eq 4 ] || { echo "queryd_smoke: FAIL: hour filter returned $filtered runs, want 4" >&2; exit 1; }

echo ">> cached render: twice, byte-identical, second is a hit"
curl -sf -D "$tmp/hdr1" -o "$tmp/render1" "$BASE/v1/datasets/fleet.ds/renders/tab1"
curl -sf -D "$tmp/hdr2" -o "$tmp/render2" "$BASE/v1/datasets/fleet.ds/renders/tab1"
cmp -s "$tmp/render1" "$tmp/render2" || { echo "queryd_smoke: FAIL: repeated render differs" >&2; exit 1; }
grep -qi '^x-cache: miss' "$tmp/hdr1" || { echo "queryd_smoke: FAIL: first render not a miss" >&2; cat "$tmp/hdr1" >&2; exit 1; }
grep -qi '^x-cache: hit' "$tmp/hdr2" || { echo "queryd_smoke: FAIL: second render not a cache hit" >&2; cat "$tmp/hdr2" >&2; exit 1; }

echo ">> served render matches the local CLI render"
"$tmp/bin/experiments" -data "$tmp/root/fleet.ds" -run tab1 >"$tmp/local" 2>/dev/null
cmp -s "$tmp/render1" "$tmp/local" || { echo "queryd_smoke: FAIL: server render differs from local CLI render" >&2; exit 1; }

echo ">> a second format of a render formats the cached tables"
tables_hits() { curl -sf "$BASE/metrics" | sed -n 's/^queryd_tables_cache_hits_total //p'; }
hits_before="$(tables_hits)"
curl -sf -o "$tmp/render.md" "$BASE/v1/datasets/fleet.ds/renders/tab1?format=md"
[ -s "$tmp/render.md" ] || { echo "queryd_smoke: FAIL: empty md render" >&2; exit 1; }
hits_after="$(tables_hits)"
[ "$hits_after" -eq $((hits_before + 1)) ] || { echo "queryd_smoke: FAIL: md render of tab1 moved tables-cache hits $hits_before -> $hits_after, want one more" >&2; exit 1; }

echo ">> ETag revalidation"
etag="$(sed -n 's/^[Ee][Tt]ag: \(.*\)\r*$/\1/p' "$tmp/hdr1" | tr -d '\r')"
[ -n "$etag" ] || { echo "queryd_smoke: FAIL: render has no ETag" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "$BASE/v1/datasets/fleet.ds/renders/tab1")"
[ "$code" = "304" ] || { echo "queryd_smoke: FAIL: revalidation got $code, want 304" >&2; exit 1; }

echo ">> experiments -server client mode"
"$tmp/bin/experiments" -server "$BASE" -data fleet.ds -run tab1 >"$tmp/remote" 2>/dev/null
cmp -s "$tmp/remote" "$tmp/local" || { echo "queryd_smoke: FAIL: client mode output differs from local render" >&2; exit 1; }

echo ">> sweep digest agreement (server catalog vs dsinspect)"
sweep_digest="$("$tmp/bin/dsinspect" -data "$tmp/root/whatif" -digest)"
curl -sf "$BASE/v1/sweeps/whatif" | grep -q "$sweep_digest" || { echo "queryd_smoke: FAIL: server sweep digest != dsinspect" >&2; exit 1; }
curl -sf "$BASE/v1/sweeps/whatif/renders/whatif-grid" >"$tmp/grid"
[ -s "$tmp/grid" ] || { echo "queryd_smoke: FAIL: empty sweep render" >&2; exit 1; }
# Two more renders of the same sealed sweep: new bodies, the store opened once.
for f in md json; do
    curl -sf "$BASE/v1/sweeps/whatif/renders/whatif-grid?format=$f" >"$tmp/grid.$f"
    [ -s "$tmp/grid.$f" ] || { echo "queryd_smoke: FAIL: empty sweep render ($f)" >&2; exit 1; }
done

echo ">> one rack's runs: twice, byte-identical, one fixed-length body"
curl -sf -D "$tmp/rackhdr" "$BASE/v1/datasets/fleet.ds/racks/RegA/0/runs" >"$tmp/rack1"
curl -sf "$BASE/v1/datasets/fleet.ds/racks/RegA/0/runs" >"$tmp/rack2"
[ -s "$tmp/rack1" ] || { echo "queryd_smoke: FAIL: empty rack stream" >&2; exit 1; }
cmp -s "$tmp/rack1" "$tmp/rack2" || { echo "queryd_smoke: FAIL: repeated rack stream differs" >&2; exit 1; }
rack_len="$(sed -n 's/^[Cc]ontent-[Ll]ength: *\([0-9]*\).*$/\1/p' "$tmp/rackhdr")"
rack_bytes="$(wc -c <"$tmp/rack1" | tr -d ' ')"
[ "$rack_len" = "$rack_bytes" ] || { echo "queryd_smoke: FAIL: rack stream Content-Length '$rack_len', body $rack_bytes bytes" >&2; cat "$tmp/rackhdr" >&2; exit 1; }
if grep -qi '^transfer-encoding: *chunked' "$tmp/rackhdr"; then
    echo "queryd_smoke: FAIL: rack stream is chunked" >&2; cat "$tmp/rackhdr" >&2; exit 1
fi

echo ">> cache metrics"
curl -sf "$BASE/metrics" >"$tmp/metrics"
grep -q 'queryd_cache_hits_total [1-9]' "$tmp/metrics" || { echo "queryd_smoke: FAIL: no cache hits recorded" >&2; cat "$tmp/metrics" >&2; exit 1; }
grep -q 'queryd_shard_cache_hits_total [1-9]' "$tmp/metrics" || { echo "queryd_smoke: FAIL: no shard-cache hits recorded" >&2; cat "$tmp/metrics" >&2; exit 1; }
grep -q 'queryd_tables_cache_hits_total [1-9]' "$tmp/metrics" || { echo "queryd_smoke: FAIL: no tables-cache hits recorded" >&2; cat "$tmp/metrics" >&2; exit 1; }

echo ">> graceful drain on SIGTERM"
kill -TERM "$queryd_pid"
wait "$queryd_pid" || { echo "queryd_smoke: FAIL: queryd exited non-zero on SIGTERM" >&2; exit 1; }
pids=""

echo "queryd_smoke: PASS — catalog, streaming, cached renders, ETags, client mode, drain"
