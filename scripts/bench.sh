#!/bin/sh
# bench.sh — re-record the benchmark baselines (BENCH_build.json,
# BENCH_serve.json, BENCH_cluster.json) on this machine.
#
# The heavy lifting is cmd/benchrecord: the build and serve suites run
# through `go test -bench`, their output is parsed, and the baseline
# JSON is rewritten with the results plus the recording machine's
# metadata (CPU model, num_cpu, GOMAXPROCS, Go version) so two
# recordings are only ever compared on like hardware. The cluster
# suite builds marketd and marketbench, boots a real replicated fleet
# (a leader and 2 followers behind a round-robin router) over loopback
# on marketd's DefaultConfig world, drives the mixed /v1 workload
# through it — including a rebuild under load and follower catch-up —
# and writes BENCH_cluster.json.
#
#   scripts/bench.sh                   # all suites
#   scripts/bench.sh -suite build      # just BenchmarkSnapshotBuild
#   scripts/bench.sh -suite cluster    # just the fleet load baseline
#   scripts/bench.sh -benchtime 1s     # override the per-suite default
#
# Record on an otherwise idle machine; the serve suite uses RunParallel
# and the cluster suite saturates every core, so background load skews
# them most.
set -eu

cd "$(dirname "$0")/.."

go run ./cmd/benchrecord -dir . "$@"
