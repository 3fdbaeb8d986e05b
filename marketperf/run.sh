#!/usr/bin/env bash
# Builds marketd and the benchmark from this checkout's sources, then
# runs the benchmark. Usage, from the repository root:
#
#   bash marketperf/run.sh --workload artifacts --seed 1 --seconds 10 --trace 0
#
# Every build output, Go cache entry and scratch file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"

# XDG_CONFIG_HOME keeps the go command's own settings in the checkout too.
# Telemetry is switched off there: otherwise the go command starts a
# detached child process that outlives the benchmark.
printf 'off\n' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/marketd" ./cmd/marketd
(cd marketperf && go build -o "$out/marketperf" .)
exec "$out/marketperf" -marketd "$out/marketd" -work "$out" -scenarios marketperf/scenarios "$@"
