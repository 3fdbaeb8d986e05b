#!/bin/sh
# check.sh — the pre-PR verification gate: the race-enabled superset of
# the tier-1 check (`go build ./... && go test ./...`).
#
# Gates (run in order; each prints its wall-clock time when it passes):
#
#   build         — go build ./...: everything compiles
#   vet           — go vet ./...: the standard-library analyzers stay green;
#                   and gofmt -l: every Go file is gofmt-clean, except
#                   the lint fixtures under internal/lint/testdata, whose
#                   expected diagnostics are pinned to line:column
#   lint          — ipv4lint: the repo-specific invariant analyzers
#                   (internal/lint) stay green
#   test          — go test -race ./...: the full suite, including the
#                   lint self-check, under the race detector
#   docs          — the documentation stays honest, run explicitly and
#                   by name: docs/API.md must document exactly the
#                   registered route set (an endpoint added without
#                   docs, or documented after removal, fails), and
#                   every relative link and same-file anchor in the
#                   repository's markdown must resolve
#   determinism   — the parallel-build contracts, run explicitly and by
#                   name so a -run filter or skip in the suite can never
#                   silently drop them: a snapshot (and Figure 6) built
#                   at any worker count must be byte-identical to the
#                   serial build; TestBench*JSONParses keep the
#                   BENCH_build/serve baselines well-formed; the
#                   one-pass RPKI rule grid matches a per-rule reference
#   store         — the durability contracts, run explicitly and by
#                   name: segment round-trip + corrupt-tail recovery
#                   (internal/store fault injection), and warm-start/
#                   restart determinism (internal/serve: byte- and
#                   ETag-identical responses across a restart)
#   asof          — the time-travel contracts, run explicitly and by
#                   name: the temporal index agrees with a naive replay
#                   over every event boundary, point lookups stay
#                   sublinear, the build stays within its allocation
#                   budget, Record/Restore round-trips byte-exactly
#                   and input-order-independently, and the /v1/asof
#                   surface validates requests, restores identical
#                   views, answers generation pins from restored
#                   temporal state, keeps every computed response's
#                   ETag at production scale (queries.golden), and
#                   holds a cache-missing diff to its allocation budget
#   smoke         — build the serving daemon, boot it on an ephemeral
#                   loopback port, and query every endpoint through a
#                   real HTTP client (marketd -selfcheck does the full
#                   cycle in-process; no curl or job control needed).
#                   Run twice: in-memory on one world, and with
#                   -scenarios on the example matrix under a -data-dir
#                   to walk every world's surface, gen pinning, seed
#                   isolation, and the default alias, then persist →
#                   shutdown → warm-start → /v1/history continuity
#                   (cmd/marketd's TestSelfcheckWithDataDir covers the
#                   durable one-world case)
#   fleet         — the leader/follower and multi-tenant matrix
#                   contracts, run explicitly and by name (sync +
#                   catch-up, corrupt and truncated downloads
#                   quarantined/resumed, byte- and ETag-identical
#                   follower answers; worker-count determinism per
#                   scenario, cross-scenario isolation, default alias,
#                   warm-start matrix and its refresh rebuild, golden
#                   example configs), then scripts/fleetgate boots two
#                   race-enabled leader/follower marketd pairs over
#                   loopback, one on one world and one on the
#                   examples/scenarios matrix, and asserts per-world
#                   leader/follower byte and ETag identity, the default
#                   alias, the follower's 409 on /admin/rebuild, clean
#                   SIGTERM exits, and on the matrix rebuild isolation
#                   and follower catch-up
#   suppressions  — ipv4lint -suppressions: every //lint:ignore
#                   directive must still silence a live finding; stale
#                   directives fail the gate so fixed code sheds its
#                   excuses
#   fuzz          — a short -fuzztime budget per native fuzz target
#                   (segment/frame decoding, prefix parsing and
#                   construction, the JSON indenter against
#                   json.MarshalIndent) on top of the committed corpus, which
#                   replays in the test gate
#   load          — the load-harness contracts, run explicitly and by
#                   name (streaming-histogram quantiles vs exact sorted
#                   data, merge associativity, closed-loop accounting
#                   and cancellation, open-loop shedding, and the
#                   BENCH_cluster.json schema), then a race-enabled
#                   marketbench boots a race-enabled marketd fleet
#                   (leader-only and leader+2 followers behind the
#                   round-robin router) at smoke scale and drives the
#                   mixed /v1 workload through it — rebuild under load,
#                   follower catch-up while saturated, zero error
#                   budget
#
# CHECK_SKIP skips gates by name (comma-separated), for iterating on
# one subsystem without paying for the rest:
#
#   CHECK_SKIP=fuzz,load scripts/check.sh
#
# A skipped gate prints a loud marker and the final line counts skips,
# so a green run with holes in it can't be mistaken for a full pass.
#
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

check_dir="${TMPDIR:-/tmp}/ipv4market-check"
mkdir -p "$check_dir"
scratch_dir=$(mktemp -d "${TMPDIR:-/tmp}/ipv4market-scratch.XXXXXX")
trap 'rm -rf "$scratch_dir"' EXIT

skipped=0

# run_gate NAME — run gate_NAME with wall-clock timing, honouring
# CHECK_SKIP. Gate failures abort the script via set -e.
run_gate() {
    gate=$1
    case ",${CHECK_SKIP:-}," in
    *",$gate,"*)
        echo "==> $gate gate SKIPPED (CHECK_SKIP)"
        skipped=$((skipped + 1))
        return 0
        ;;
    esac
    echo "==> $gate gate"
    gate_start=$(date +%s)
    "gate_$gate"
    echo "==> $gate gate passed in $(($(date +%s) - gate_start))s"
}

gate_build() {
    go build ./...
}

gate_vet() {
    go vet ./...
    unformatted=$(find . -name '*.go' -not -path './.*' \
        -not -path './internal/lint/testdata/*' -exec gofmt -l {} +)
    if [ -n "$unformatted" ]; then
        printf 'gofmt -l: not gofmt-clean:\n%s\n' "$unformatted" >&2
        return 1
    fi
}

gate_lint() {
    go run ./cmd/ipv4lint ./...
}

gate_test() {
    go test -race ./...
}

gate_docs() {
    go test -race -count=1 \
        -run 'TestAPIDocsMatchRoutes|TestMarkdownLinks|TestRoutesSorted' \
        ./internal/serve
}

gate_determinism() {
    go test -race -count=1 \
        -run 'TestBuildSnapshotDeterministic|TestBenchBuildJSONParses|TestBenchServeJSONParses' \
        ./internal/serve
    go test -race -count=1 \
        -run 'TestFigure6WorkersDeterministic|TestFigure2WorkersMatchesSerial' \
        ./internal/core
    go test -race -count=1 -run 'TestEvaluateGridMatchesPerRule' ./internal/rpki
}

gate_store() {
    go test -race -count=1 \
        -run 'TestSegmentRoundTrip|TestOpenRecovers|TestAppendAssignsMonotonicGenerations' \
        ./internal/store
    go test -race -count=1 \
        -run 'TestWarmStartMatchesColdBuild|TestRestartETagContinuity|TestSnapshotRecordRestoreRoundTrip' \
        ./internal/serve
}

gate_asof() {
    go test -race -count=1 \
        -run 'TestIndexMatchesNaiveReplay|TestPointLookupSublinear|TestRecordRestoreRoundTrip|TestNewDeterministicUnderInputOrder|TestIndexBuildAllocs' \
        ./internal/temporal
    go test -race -count=1 \
        -run 'TestAsofMatchesNaiveReplay|TestAsofPinnedGeneration|TestAsofRestoreServesIdenticalViews|TestAsofRequestValidation|TestQueryETagsGolden|TestAsofDiffAllocs' \
        ./internal/serve
}

gate_smoke() {
    go build -o "$check_dir/marketd" ./cmd/marketd
    "$check_dir/marketd" -selfcheck -lirs 14 -days 40
    scen_dir=$(mktemp -d "$scratch_dir/scenarios.XXXXXX")
    "$check_dir/marketd" -selfcheck -scenarios examples/scenarios \
        -lirs 14 -days 40 -data-dir "$scen_dir"
}

gate_fleet() {
    # One go test run over both packages, so they test side by side; no
    # test name of one list exists in the other package.
    replication_tests='TestLeaderFollowerSync|TestFlippedBytesQuarantined|TestTruncatedStreamResumed|TestLeaderFollowerEndToEnd'
    scenario_tests='TestMatrixDeterminism|TestScenarioIsolation|TestDefaultAlias|TestWarmStartMatrix|TestGoldenConfigsReplay'
    go test -race -count=1 -run "$replication_tests|$scenario_tests" \
        ./internal/replicate ./internal/scenario
    go build -race -o "$check_dir/marketd-race" ./cmd/marketd
    go run ./scripts/fleetgate "$check_dir/marketd-race"
}

gate_suppressions() {
    go run ./cmd/ipv4lint -suppressions ./...
}

gate_fuzz() {
    go test -run '^$' -fuzz FuzzDecodeSegment -fuzztime 5s ./internal/store
    go test -run '^$' -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/store
    go test -run '^$' -fuzz FuzzPrefixFrom -fuzztime 5s ./internal/netblock
    go test -run '^$' -fuzz FuzzParsePrefix -fuzztime 5s ./internal/netblock
    go test -run '^$' -fuzz FuzzIndentJSON -fuzztime 5s ./internal/serve
}

gate_load() {
    go test -race -count=1 \
        -run 'TestHistogramQuantileMatchesExact|TestHistogramMergeAssociativity|TestClosedLoopAccounting|TestClosedLoopCancellation|TestOpenLoopSheds|TestBenchClusterJSONParses' \
        ./internal/loadgen
    go build -race -o "$check_dir/marketd-race" ./cmd/marketd
    go build -race -o "$check_dir/marketbench-race" ./cmd/marketbench
    "$check_dir/marketbench-race" -marketd "$check_dir/marketd-race" \
        -topologies 0,2 -lirs 14 -days 40 \
        -concurrency 4 -warmup 50 -requests 600 -error-budget 0
}

run_gate build
run_gate vet
run_gate lint
run_gate test
run_gate docs
run_gate determinism
run_gate store
run_gate asof
run_gate smoke
run_gate fleet
run_gate suppressions
run_gate fuzz
run_gate load

if [ "$skipped" -gt 0 ]; then
    echo "check.sh: gates passed with $skipped gate(s) SKIPPED — not a full pass"
else
    echo "check.sh: all gates passed"
fi
