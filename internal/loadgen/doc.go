// Package loadgen is the cluster load-generation subsystem: workload
// specifications over the serving layer's /v1 endpoint mix, a
// closed-loop HTTP load runner with warmup and per-endpoint latency
// accounting, a round-robin loopback router with readiness-based
// draining, and the BENCH_cluster.json report schema.
//
// Everything is stdlib-only and deterministic where it can be: the
// request mix is a pure function of an explicit seed (splitmix64, one
// derived stream per worker), latency is recorded into
// internal/latency's fixed geometric layout — the same one the server
// exports per route on /varz, so two runs, or a client-side and a
// server-side recording, are comparable bucket by bucket — and tests
// assert on seeded request counts, never on wall-clock time.
//
// cmd/marketbench composes the pieces into one topology: a leader and
// two follower marketd processes, a Router over all three, and a Runner
// driving mixed traffic through the router while the leader rebuilds
// and the followers catch up. scripts/check.sh runs the same stack at
// smoke scale as the load gate. Latency at a fixed offered rate, and
// the single-server read path, are marketperf's to measure.
//
// Layering: loadgen knows the serving layer's HTTP surface (paths,
// response shapes, the /varz bucket export) but imports none of the
// serving packages — it is a client, and stays honest by speaking only
// HTTP. Its one module import is the leaf internal/latency.
package loadgen
