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

# A sweep's racks are lanes that workers hand between each other and whose
# points commit once every lane has passed them; run the sharing oracle and
# the sweep's scheduling-sensitive tests a few more times under the race
# detector, so lanes meet each other, and the committer, in several
# interleavings.
echo ">> go test -race -count=3 -run 'Shared|Determinism|Resume|MaxPoints' ./internal/sweep"
go test -race -count=3 -run 'Shared|Determinism|Resume|MaxPoints' ./internal/sweep

# internal/integration drives the heap beyond the 16.8 ms far span on real
# racks: TestRetransmitAccounting's backed-off RTOs and every host's clock
# daemon land there.
echo ">> go test -tags simdebug ./internal/sim ./internal/netsim ./internal/switchsim ./internal/transport ./internal/testbed ./internal/integration"
go test -tags simdebug ./internal/sim ./internal/netsim ./internal/switchsim ./internal/transport ./internal/testbed ./internal/integration

# The golden rack-hours under the engine's queue invariants: every pop of a
# real packet workload is checked against every tier. The second pass runs
# every golden again in the same process, on recycled counter blocks and
# gzip writers, so a dirty pooled buffer shows as a digest change.
echo ">> go test -tags simdebug -count=2 -run Golden ./internal/fleet"
go test -tags simdebug -count=2 -run Golden ./internal/fleet

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
# tests cover; the \( keeps fleet.GenerateStream( legal. Likewise the copies
# of the run rules and loops core now holds once: the second periodic
# scheduler, the host-stack sampler outside core, the switch poller no figure
# read and the burst-gap helpers only tests reached; the trailing class lets
# the three old schedule test names, which now exercise core.Periodic, stay.
# Likewise the demo programs whose claims are now tests in
# internal/integration (the incast, buffer-sizing, placement and diagnostics
# examples and the rack-wide sampler command), the host run store only
# millisampler's store flag reached, and the fleet wrapper over
# SimulateRunFull; the flag is matched only where millisampler is, since
# other stores say "-store" legitimately. Likewise the congestion controls
# no workload selected and the connection knobs nothing set: DCTCP is the
# transport's one congestion control. Likewise the engine's cancellable event
# handles, heap corpses and compaction, and its Halt: a Timer is the one
# schedule that can be stopped, and it leaves every tier at once. Likewise
# the rack model's copies: the host-stack tap is a tc filter, not a second
# hook kind; the switch has one DT and one quota policy; and the rack,
# switch and control-plane settings nothing set are constants now
# (HostConfig.Cores shares the old RackConfig.Cores spelling, so that one is
# not matched). Likewise the what-if axes and settings nothing set: the grid
# is policy x alpha x ECN, the clients jitter from math/rand/v2, a receiver
# has no per-segment callback, fleet.Config.Stored is the one stored-config
# rule, and queryd's Retry-After is a constant (distrib's RetryAfter stays,
# so only queryd is searched for that one). Likewise Millisampler's per-CPU
# counter copies and the convert-then-interpolate alignment: a host keeps one
# counter block, and alignment interpolates straight from the counters.
# Likewise what a rack-hour computed that nothing read: the host-stack tap's
# per-CPU histogram copies, the per-sample host-stack series and its totals
# (hoststack.Reduce sums the window straight into its record), and the
# aligned InECN / Out / OutRetx series; the leading dot keeps the counter
# names CtrInECN, CtrOut and CtrOutRetx legal. Likewise the sweep's second
# worker pool: a rack is a lane that runs every pending point, so the point
# pool's split, the sharer with its test hook, and fleet's per-rack-hour
# Deliver hook must not return. Likewise the generation's visitor layer and
# the busy-hour rule's second copy and its distance helper: GenerateStream
# runs on fleet.RunLanes, and fleet.BusyPick is the one place a rack's busy
# hour is picked. Likewise the distributed sweep's point path: a sweep unit
# is a rack's lane through every pending point, committed by
# sweep.Store.CommitLanes, so the point unit kind, its payload and unit ID,
# the single-point idempotent commit, the baseline lease gate and the
# worker's per-unit parallelism flag must not return. Likewise the
# sharing-policy objects: a policy is one stateless rule evaluated on the
# pool the switch keeps, a shadow is one rule, and ABM's drain-rate
# estimator (and the dequeue hook that fed it) is gone. Likewise queryd's
# second render path: dataset and sweep renders go through one render, and
# the opened-sweep cache holds a sealed sweep's report, so the shared writer
# and the cache of opened results must not return. Likewise the per-point
# shadows: a switch keeps its own margins on the admission path, SimulateRunFull
# returns them, and a sweep lane keeps its simulated rack-hours and matches a
# later point by membership, so the shadow type, the shadowed rack-hour entry
# point, the lane's outcome map key and its test hook must not return.
# Likewise the second rack scheduler: fleet.RunLanes is the one scheduler,
# generation is its one-step case and a sweep lane is one of its lanes, so
# the sweep's own lane type must not return.
echo ">> retired-path guard"
if git grep --untracked -nE 'fleet\.gob\.g[z]|small\.gob\.g[z]|bench[g]ate|BENCH_[P]R[0-9]|Looks[S]harded|generate[L]egacy|fleet\.[A]borter|abort[V]isitor|verify[S]hardFile|verify[P]ointFile|fsutil\.[S]ync(File|Dir)|stream[L]ine|fleet\.[G]enerate\(|dataset\.[W]rite\(|mem[S]ink|Harvest[P]olicy|examples/[v]alidation|Multi[S]chedule([^A-Za-z]|$)|New[P]oller|hoststack\.[N]ewSampler|hoststack\.[C]onfig|Burst[G]aps|cmd/[s]yncsampler|examples/([i]ncast|[b]uffersizing|[p]lacement|[d]iagnostics)|internal/[t]race|fleet\.[S]imulateRun\(|New[C]ubic\(|New[R]eno\(|[C]ongestionControl interface|No[I]dleRestart|RTO[M]in|RTO[I]nit|compact[T]hreshold|e\.[n]cancel|Engine\) [C]ancel\(|\.[H]alt\(\)|[C]ancelled\(\)|Set[S]tackTap|StackTap[I]nstalled|netsim\.[S]tackTap|type [D]T struct|static[P]olicy|bshare[P]olicy|[C]ontrolConfig|ControlPlane\) [C]onfig\(|([^t]|^)[S]erverRateBps|[R]emoteRateBps|[D]ownlinkRateBps|([Cc]fg|\bc|Config\(\))\.([F]abricDelay|[Q]uadrants|[D]ownlinkProp|[C]ontrol\b)|\b([F]abricDelay|[Q]uadrants|[D]ownlinkProp):|\b(r|rack)\.[C]fg\b|"total_[b]uffer|"dedicated_per_[q]ueue|[T]otalBuffers|[B]ShareDelays|bshare_[d]elays|On[R]eceive\b|[R]nd +func|normalize[C]onfig|normalize[F]leet|type [p]erCPU|resample[F]?\(|hoststack\.([A]lignRuns|[S]eries\b)|Totals(I[n]|E[g])\(|\.([I]nECN|[O]ut|[O]utRetx)\b|bins \[\]\[\][u]int32|type [s]harer|point[C]onc|per[P]oint|sharer[H]ook|[D]eliver func\(spec|[R]ackVisitor|[V]isitOpts|[V]isitStream|gen[V]isitor|busy[C]ontention|Busy[D]ist|Kind[P]oint|Point[P]ayload|point[U]nitID|CommitPoint[I]fNew|[R]eady\(id string\)|-sim-[w]orkers|type [S]haringPolicy|[t]eePolicy|[s]haredPool|[q]uotaPolicy|[d]tPolicy|[c]ompletePolicy|[a]bmPolicy|On[D]equeue|write[R]ender|open[S]weep|type [S]hadow\b|SimulateRun[S]hadowed|held[H]ook|lane[H]our|type [l]ane struct' -- \
    '*.go' Makefile scripts .github README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify ||
    git grep --untracked -nE 'cfg\.[R]etryAfter' -- internal/queryd ||
    git grep --untracked -nE -- '"[s]tore"|-[s]tore' -- cmd/millisampler ||
    git grep --untracked -nE -- 'millisampler.*-[s]tore' -- Makefile scripts .github README.md DESIGN.md .claude/skills/verify; then
    echo "check: a retired single-file dataset / bench-gate / streamed-shard / stream-record / demo / transport / engine / rack-model / what-if / sampler / host-stack / sweep-pool / visitor / distributed-point / sharing-policy / render-path / shadow / scheduler name reappeared (see above)" >&2
    exit 1
fi
if git grep --untracked -nE 'json\.New[E]ncoder' -- 'internal/queryd/*.go' ':!internal/queryd/*_test.go'; then
    echo "check: a json.Encoder is back in queryd; stream lines go through encodeRun and appendLine" >&2
    exit 1
fi

# queryd's path and query parsing under native fuzzing: arbitrary paths and
# raw queries through the whole handler on the test fixture, beyond the seed
# corpus (testdata/fuzz/FuzzServe) that every go test run replays. Two
# workers, because each builds the fixture.
echo ">> go test -fuzz FuzzServe -fuzztime 10s ./internal/queryd"
go test -run '^$' -fuzz '^FuzzServe$' -fuzztime 10s -parallel 2 ./internal/queryd

# Both instruments bucket every packet through runWindow.bucket; it must stay
# inlined so the per-packet prologue is free of a call.
echo ">> runWindow.bucket inlines into both hot paths"
inl=$(go build -gcflags=-m ./internal/core 2>&1)
for f in sampler.go stacktap.go; do
    if ! printf '%s\n' "$inl" | grep -q "$f:.*inlining call to (\*runWindow)\.bucket"; then
        echo "check: (*runWindow).bucket is no longer inlined in internal/core/$f" >&2
        exit 1
    fi
done

# Likewise the early-demux slot check runs for every segment a host delivers;
# a call there would eat part of what skipping the map lookup saves.
echo ">> Endpoint.early inlines into receive"
if ! go build -gcflags=-m ./internal/transport 2>&1 | grep -q "endpoint.go:.*inlining call to (\*Endpoint)\.early"; then
    echo "check: (*Endpoint).early is no longer inlined in internal/transport/endpoint.go" >&2
    exit 1
fi

# go test never executes the two kept demos, so pin their stdout instead.
echo ">> demo stdout digests"
demo_digest() {
    want=$1
    shift
    got=$(go run "$@" | sha256sum | cut -d' ' -f1)
    if [ "$got" != "$want" ]; then
        echo "check: go run $* stdout sha256 is $got, want $want" >&2
        exit 1
    fi
}
demo_digest 69ccc2421c57b03565f688b3761f635f04b320f99f9a1c80bfc65c712b72e58e ./cmd/millisampler -profile cache -runs 2
demo_digest 0ee1ea04728af5208e9e2f0afefe5ef88a83a19ace7ce5a85286e70dd390bfc2 ./examples/quickstart
# The sweep grid's expansion order and labels, as -plan prints them.
demo_digest d94edfdba06241c6c4f6e6d4f94ba9aa7fbaffc00f855a5cbb8aace2ff35f01e ./cmd/sweep -preset demo -plan
demo_digest 0a78748d77b30d4e256229eb2853a902114a0433e70eed2a73677b1e0f69da5e ./cmd/sweep -preset smoke -plan

# The demo sweep end to end on two workers: its lanes share fleet.RunLanes
# with generation, and neither its result digest nor the rack-hours its
# points share may depend on how the lanes interleave.
echo ">> sweep -preset demo -workers 2: result digest and shared rack-hours"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if ! go run ./cmd/sweep -preset demo -workers 2 -o "$tmp/demo" >/dev/null 2>"$tmp/demo.err"; then
    cat "$tmp/demo.err" >&2
    exit 1
fi
last=$(tail -n 1 "$tmp/demo.err")
case $last in
*a328638b524847d27edc3233abbecf1a4e8c4e9e368308327313b70cdb531be6*) ;;
*)
    echo "check: sweep -preset demo -workers 2 ended \"$last\", want result digest a328638b524847d27edc3233abbecf1a4e8c4e9e368308327313b70cdb531be6" >&2
    exit 1
    ;;
esac
shared=$(sed -n 's|.* \([0-9]*\)/[0-9]* rack-hours shared.*|\1|p' "$tmp/demo.err" | awk '{ s += $1 } END { print s + 0 }')
if [ "$shared" != 180 ]; then
    echo "check: sweep -preset demo -workers 2 shared $shared rack-hours, want 180" >&2
    exit 1
fi

echo "check: all green"
