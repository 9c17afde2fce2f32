// Package repro is a from-scratch reproduction of "A Microscopic View of
// Bursts, Buffer Contention, and Loss in Data Centers" (Ghabashneh et al.,
// IMC 2022): Millisampler, SyncMillisampler, and the full simulated
// data-center substrate needed to regenerate every table and figure of the
// paper's evaluation.
//
// The library is organized bottom-up:
//
//   - internal/sim         — deterministic discrete-event engine and RNG
//   - internal/clock       — NTP-disciplined host clock model
//   - internal/netsim      — segments, links, NICs, multi-core hosts, tc hooks
//   - internal/switchsim   — shared-memory ToR with pluggable buffer sharing
//   - internal/transport   — DCTCP with loss recovery
//   - internal/sketch      — 128-bit connection-counting sketch
//   - internal/testbed     — rack topology assembly and collection control plane
//   - internal/core        — Millisampler and SyncMillisampler (the paper's
//     contribution), plus the host-stack latency tap on the same run window
//   - internal/hoststack   — the host-stack tap's histograms and reductions
//   - internal/analysis    — bursts, contention, loss attribution
//   - internal/stats       — CDFs, percentiles and box summaries for figures
//   - internal/workload    — service traffic profiles and validation tools
//   - internal/fleet       — two-region placement, diurnal schedule, rack-hour
//     simulation at full or hybrid fidelity
//   - internal/fluid       — the hybrid fidelity's fluid fast path
//   - internal/unitstore   — the resumable result directory under dataset and sweep
//   - internal/fsutil      — atomic durable writes and file digests
//   - internal/dataset     — the sharded on-disk fleet dataset
//   - internal/sweep       — §9 what-if grids of counterfactual switch configs
//   - internal/experiments — one generator per paper table/figure
//   - internal/distrib     — lease-based coordinator/worker generation
//   - internal/queryd      — read-side query service over datasets and sweeps
//   - internal/httpserve   — HTTP plumbing shared by coordinator and queryd
//   - internal/retry       — the one backoff schedule recovery paths share
//   - internal/prof        — CPU, heap and execution-trace profiling flags
//   - internal/txtplot     — ASCII line plots
//   - internal/integration — end-to-end tests across the packet path, including
//     the paper's §4.2 and §9 claims
//
// The benchmarks in bench_test.go regenerate each experiment (see DESIGN.md
// for the index) and reproduce the §4.3 performance microbenchmarks.
package repro
