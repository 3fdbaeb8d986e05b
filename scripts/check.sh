#!/bin/sh
# check.sh — the pre-PR verification gate: the race-enabled superset of
# the tier-1 check (`go build ./... && go test ./...`).
#
# Gates (run in order; each prints its wall-clock time when it passes):
#
#   build         — go build ./...: everything compiles, in the root module
#                   and in the nested marketperf module (its own go.mod,
#                   so the root ./... never reaches it; the benchmark
#                   builds it against this tree's serve and store)
#   vet           — go vet ./... in both modules: the standard-library
#                   analyzers stay green; and gofmt -l: every Go file is
#                   gofmt-clean, except the lint fixtures under
#                   internal/lint/testdata, whose expected diagnostics
#                   are pinned to line:column
#   test          — one go test -race -json ./... run, checked by
#                   scripts/testgate: any failed test, subtest, package
#                   or build fails the gate with its output printed, and
#                   every contract test on testgate's list (served bytes
#                   and ETags, worker-count determinism, durability,
#                   the as-of index, replication and scenario isolation,
#                   the load harness's statistics, the API docs and
#                   markdown links) must report pass — a skipped or
#                   absent contract fails. The suite includes the lint
#                   self-check: every ipv4lint analyzer over the module,
#                   failing on any finding and on any stale
#                   //lint:ignore directive. Then marketperf's own
#                   go test ./..., outside the race detector
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
#   fleet         — scripts/fleetgate boots two race-enabled
#                   leader/follower marketd pairs over loopback, one on
#                   one world and one on the examples/scenarios matrix,
#                   and asserts per-world leader/follower byte and ETag
#                   identity, the default alias, the follower's 409 on
#                   /admin/rebuild, clean SIGTERM exits, and on the
#                   matrix rebuild isolation and follower catch-up
#   fuzz          — a short -fuzztime budget per native fuzz target,
#                   every Fuzz function go test -list finds in the
#                   module (segment/frame decoding, prefix parsing and
#                   construction, the JSON indenter against
#                   json.MarshalIndent, the as-of record and the
#                   /v1/transfers body against json.Marshal, the MRT
#                   reader's round trip, ...), on top of the committed
#                   corpus, which replays in the test gate; finding no
#                   target fails the gate
#   load          — a race-enabled marketbench boots a race-enabled
#                   marketd fleet (a leader and 2 followers behind the
#                   round-robin router) at smoke scale and drives the
#                   mixed /v1 workload through it — rebuild under load,
#                   follower catch-up while saturated, zero error
#                   budget, and every node exiting cleanly at teardown
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
    (cd marketperf && go build ./...)
}

gate_vet() {
    go vet ./...
    (cd marketperf && go vet ./...)
    unformatted=$(find . -name '*.go' -not -path './.*' \
        -not -path './internal/lint/testdata/*' -exec gofmt -l {} +)
    if [ -n "$unformatted" ]; then
        printf 'gofmt -l: not gofmt-clean:\n%s\n' "$unformatted" >&2
        return 1
    fi
}

gate_test() {
    test_status=0
    go test -race -json ./... > "$check_dir/test.json" || test_status=$?
    go run ./scripts/testgate "$check_dir/test.json"
    # testgate names what failed; go test's own status backs it up.
    [ "$test_status" -eq 0 ] || return "$test_status"
    (cd marketperf && go test ./...)
}

gate_smoke() {
    go build -o "$check_dir/marketd" ./cmd/marketd
    "$check_dir/marketd" -selfcheck -lirs 14 -days 40
    scen_dir=$(mktemp -d "$scratch_dir/scenarios.XXXXXX")
    "$check_dir/marketd" -selfcheck -scenarios examples/scenarios \
        -lirs 14 -days 40 -data-dir "$scen_dir"
}

gate_fleet() {
    go build -race -o "$check_dir/marketd-race" ./cmd/marketd
    go run ./scripts/fleetgate "$check_dir/marketd-race"
}

# gate_fuzz fuzzes every native fuzz target in the module for 5s each.
# The targets come from go test -list, one "PKG TARGET" line each: a
# package's target names print before its "ok" line.
gate_fuzz() {
    go test -list '^Fuzz' ./... > "$check_dir/fuzz.list"
    targets=$(awk '/^Fuzz/ { names = names " " $1; next }
        /^ok / { n = split(names, f, " "); for (i = 1; i <= n; i++) print $2, f[i]; names = "" }' \
        "$check_dir/fuzz.list")
    if [ -z "$targets" ]; then
        echo "fuzz: go test -list found no fuzz target" >&2
        return 1
    fi
    while read -r pkg target; do
        go test -run '^$' -fuzz "^$target\$" -fuzztime 5s "$pkg" < /dev/null
    done <<EOF
$targets
EOF
}

gate_load() {
    go build -race -o "$check_dir/marketd-race" ./cmd/marketd
    go build -race -o "$check_dir/marketbench-race" ./cmd/marketbench
    "$check_dir/marketbench-race" -marketd "$check_dir/marketd-race" \
        -lirs 14 -days 40 \
        -concurrency 4 -warmup 50 -requests 600 -error-budget 0
}

run_gate build
run_gate vet
run_gate test
run_gate smoke
run_gate fleet
run_gate fuzz
run_gate load

if [ "$skipped" -gt 0 ]; then
    echo "check.sh: gates passed with $skipped gate(s) SKIPPED — not a full pass"
else
    echo "check.sh: all gates passed"
fi
